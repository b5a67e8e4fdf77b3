(** Result containers for regenerated paper figures, with text and CSV
    rendering. *)

type point = { x : float; y : float; sd : float }
type series = { label : string; points : point list }

type t = {
  id : string;  (** e.g. "fig7" *)
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  paper_expectation : string;
      (** the qualitative shape the paper reports, quoted/summarized *)
}

val pp : Format.formatter -> t -> unit
(** Aligned text table: one row per x, one column per series. *)

val pp_chart : Format.formatter -> t -> unit
(** Rough ASCII bar chart: one row per series, bars scaled to the
    figure-wide maximum (quick visual check of who wins where). *)

val to_csv : t -> string
(** Long format: [figure,series,x,y,sd].  A figure id or series label
    holding a comma, a quote or a line break is quoted as RFC 4180
    says, with its quotes doubled. *)

val series_points : t -> string -> (float * float) list
(** [(x, y)] pairs of the named series. @raise Not_found. *)
