(** The repository's one JSON codec: a value type, one compact printer
    and one reader.  Every artifact the simulator writes (traces,
    attribution reports and sidecars, merge, chaos and churn reports,
    telemetry, profiles, bench reports, serve answers) is built as a
    {!t} and printed by {!to_buffer}; every reader goes through
    {!parse}.  The dependency budget rules out a JSON library, so this
    is hand-rolled.

    {b Numbers} keep their literal text ([Num]), so ints and floats both
    round-trip exactly.  Floats are rendered by {!float_lit}: ["%.1f"]
    for whole numbers below 1e15, ["%.17g"] otherwise, which reparses
    bit-exactly.

    {b Strings} are byte strings.  The printer backslash-escapes the
    double quote and the backslash, writes a newline as [\n] and every
    other byte below 0x20 as [\u00XX]; all other bytes pass through.
    The reader decodes every RFC 8259 escape ([\uXXXX] to UTF-8, surrogate
    pairs combined) and rejects any other escape with its position.

    {b Nesting} deeper than {!max_depth} is rejected with a located
    error, so a hostile document costs time linear in its length. *)

type t =
  | Num of string  (** the literal, unconverted — caller picks int/float *)
  | Str of string
  | Bool of bool
  | Null
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string
(** Raised by {!parse} and the accessors below; the message carries the
    offending position or key. *)

(** {2 Building values} *)

val of_int : int -> t
val of_float : float -> t
(** [Num (float_lit v)]. *)

val of_option : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

(** {2 Printing} *)

val to_buffer : Buffer.t -> t -> unit
(** Compact rendering (no whitespace), members in list order. *)

val to_string : t -> string

val float_lit : float -> string
(** The float rule above; the printer never renders a float any other
    way. *)

val escape : string -> string
(** A double-quoted JSON string literal, escaped as above. *)

(** {2 Reading} *)

val max_depth : int
(** Arrays and objects nested deeper than this are rejected (512). *)

val parse : string -> t
(** @raise Bad on malformed input (including trailing garbage), naming
    the byte offset. *)

(** {2 Accessors}

    All raise {!Bad} (never return) on shape mismatch, so a reader is a
    straight-line chain of lookups wrapped once in {!try_result}. *)

val obj : t -> (string * t) list
val field : (string * t) list -> string -> t
val field_opt : (string * t) list -> string -> t option
val str : t -> string
val num : t -> string
val int : t -> int
val float : t -> float
val bool : t -> bool
val arr : t -> t list

val try_result : (unit -> 'a) -> ('a, string) result
(** Run a parser chain, catching {!Bad} and [Failure] into [Error]. *)
