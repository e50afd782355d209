(** Text rendering helpers for the benchmark harness: section banners,
    aligned series tables, CDF tables — the textual equivalents of the
    paper's figures. *)

val banner : Format.formatter -> string -> unit
(** A boxed section header. *)

val subhead : Format.formatter -> string -> unit

val kv : Format.formatter -> string -> string -> unit
(** An aligned ["  key: value"] line. *)

type ramp = {
  levels : Kvsm.Workload.level_report list;
  peak_rps : float;  (** {!Kvsm.Workload.peak_throughput} of [levels] *)
  saturation_rps : float option;
      (** {!Kvsm.Workload.saturation_rate} of [levels] *)
}
(** An open-loop ramp's levels and the two summaries every ramp report
    prints. *)

val ramp : Kvsm.Workload.level_report list -> ramp

val ramp_block : Format.formatter -> ramp -> unit
(** One line per level, then the peak throughput and the saturation
    offered rate. *)

val summary_row : Format.formatter -> label:string -> Stats.Summary.t -> unit
(** One labelled row of count/mean/percentiles. *)

val cdf_table :
  Format.formatter ->
  label:string ->
  series:(string * Stats.Summary.t) list ->
  points:int ->
  unit
(** A CDF table with one column per named summary: rows are cumulative
    probabilities, cells are the value (ms) at that probability. *)

val series_table :
  Format.formatter ->
  time_label:string ->
  columns:(string * (float * float) list) list ->
  unit
(** Aligned multi-column time series: one row per instant in the sorted
    union of every column's sample times.  Columns need not share
    sampling instants — a column without a point at a row's instant
    prints [-] in that cell, keeping the columns aligned. *)

val intervals :
  Format.formatter -> label:string -> (Des.Time.t * Des.Time.t) list -> unit
(** Render OTS intervals as [start–end (length)] lines. *)

val float_cell : float -> string
(** Fixed-width numeric cell; NaN renders as ["-"]. *)
