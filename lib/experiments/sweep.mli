(** Cached scenario execution.

    Several figures share the exact same underlying runs (e.g. Fig 1 and
    Fig 2 are delay and message count over the same sweep); the cache keys
    on the structural content of (scenario, trials) so shared points are
    simulated once per process.

    {b Parallelism and determinism.}  Trials fan out over a
    {!Bgp_engine.Pool} of domains ([?jobs], defaulting to the pool's
    process-wide default).  Every trial owns its seed, RNG and scheduler
    — [Runner.run] shares no mutable state between runs — so the results
    are bit-identical whatever the job count.  The cache itself is
    domain-safe: lookups are mutex-protected and misses are
    single-flight, so two domains asking for the same (scenario, trials)
    key never simulate it twice — the second blocks until the first
    fills the entry and then shares the very same result list. *)

val results :
  ?jobs:int -> Bgp_netsim.Runner.scenario -> trials:int -> Bgp_netsim.Runner.result list
(** Runs seeds [scenario.seed .. scenario.seed + trials - 1] (memoized).
    Independent of [jobs] — parallel and sequential runs return
    structurally identical results.  Built on {!prefetch}: a one-spec
    prefetch, then a wait for the cache entry.  The wait starts over
    (and claims the key afresh) when the entry disappears, because a
    failed claim was dropped or {!clear_cache} ran. *)

val prefetch : ?jobs:int -> (Bgp_netsim.Runner.scenario * int) list -> unit
(** [prefetch specs] fills the cache for every uncached
    [(scenario, trials)] pair in [specs], fanning {e all} their trial
    runs out as one flat batch — so a whole series parallelises across
    points, not just within one point's trials.  Subsequent {!results}
    calls for those pairs are cache hits. *)

val mean_of : (Bgp_netsim.Runner.result -> float) -> Bgp_netsim.Runner.result list -> float

val sd_of : (Bgp_netsim.Runner.result -> float) -> Bgp_netsim.Runner.result list -> float

val point :
  ?jobs:int ->
  Bgp_netsim.Runner.scenario ->
  trials:int ->
  x:float ->
  metric:(Bgp_netsim.Runner.result -> float) ->
  Figure.point

val clear_cache : unit -> unit
val cache_size : unit -> int
