(* The Fig 4 campaign with the region matrix installed on every shard
   cluster before it starts: [Geo.apply] overrides all 20 directed
   links, so the uniform profile [Fig4.run] creates them with never
   carries a message. *)
let run ?(seed = 23L) ?(failures = 300) ?jobs ?instrument ?record
    ~config () =
  Fig4.run ~seed ~n:5 ~failures ?jobs ?instrument ?record
    ~on_cluster:(fun ~shard:_ cluster -> Geo.apply cluster)
    ~config ()

let compare_modes ?(failures = 300) ?(jobs = 1) () =
  [
    run ~failures ~jobs ~config:(Raft.Config.static ()) ();
    run ~failures ~jobs ~config:(Raft.Config.dynatune ()) ();
  ]

let print ppf results =
  Report.banner ppf
    "Fig 8: detection & OTS CDFs on the 5-region geo WAN (AWS analogue)";
  List.iter
    (fun (r : Fig4.result) ->
      Report.subhead ppf
        (r.Fig4.mode ^ " (" ^ string_of_int r.Fig4.failures ^ " leader failures)");
      Report.summary_row ppf ~label:"detect" r.Fig4.detection;
      Report.summary_row ppf ~label:"ots" r.Fig4.ots;
      Report.summary_row ppf ~label:"randTO" r.Fig4.randomized)
    results;
  Fig4.print_comparison ppf
    ~paper:("1137 -> 213 = 81%", "1718 -> 1145 = 33%")
    results
