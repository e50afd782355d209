(** Every figure of the evaluation by name, with its quick- and
    paper-scale parameters: the one table behind both [bench/main.exe]
    and [dynatune_sim figure].

    Quick scale shrinks campaign sizes and hold durations (the shape of
    every result is preserved; only statistical resolution drops);
    [~full:true] runs the paper's parameters.  [jobs] fans a campaign
    out over that many domains, as each scenario's [jobs] argument
    documents. *)

val table :
  (string * (full:bool -> jobs:int -> Format.formatter -> unit)) list
(** In presentation order: fig4, fig5, fig5sat, fig6a, fig6b, fig7,
    fig8, ablation, reconfig, extensions, multiraft.  Each entry runs
    its scenario and prints the figure to the formatter. *)
