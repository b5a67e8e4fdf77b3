(** Work pool over OCaml 5 domains.

    [map] fans a list of independent jobs out over [jobs] domains (a
    mutex-protected work deque; each worker repeatedly takes the next
    pending job).  Results are returned in input order, so for a pure
    job function the output is bit-identical to [List.map] regardless
    of the job count or of which domain ran which job.  Every call runs
    the same worker loop, with [max 1 (min jobs n)] workers for [n]
    jobs.  Worker 0 is the calling domain, so one worker ([jobs = 1],
    or at most one job) spawns no domain at all.

    Exceptions: if one or more jobs raise, the pool drains, joins every
    worker domain (no domain leak), and re-raises — deterministically,
    the exception of the raising job with the {e lowest} input index,
    with its original backtrace.  Every job runs before that re-raise,
    whatever the job count: with one worker, the jobs after a failing
    one still run first. *)

val default_jobs : unit -> int
(** Process-wide default used when [?jobs] is omitted.  Initially
    [Domain.recommended_domain_count ()]; override with
    [set_default_jobs] (e.g. from a [--jobs] CLI flag). *)

val set_default_jobs : int -> unit
(** Sets the process-wide default job count.
    @raise Invalid_argument if the count is [< 1]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f xs] is [List.map f xs], computed on up to [jobs]
    domains (default {!default_jobs}).
    @raise Invalid_argument if [jobs < 1]. *)

(** {1 Instrumentation}

    Under an armed {!Profile} session each worker records its job
    executions as [Pool_job] spans and its takes from the work deque as
    [Pool_wait] spans, at every job count, so a job's own spans nest in
    its [Pool_job].  The pool keeps no clock of its own. *)

type domain_stat = {
  domain : int;  (** worker index within the batch; 0 is the caller *)
  jobs : int;  (** jobs this worker executed *)
}

val last_batch : unit -> domain_stat list
(** Per-worker job counts of the most recent [map] call (one entry per
    worker, caller first).  Empty before the first call. *)
