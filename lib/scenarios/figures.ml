let scale ~full quick paper = if full then paper else quick
let hold ~full quick paper = Des.Time.sec (scale ~full quick paper)

let fig6 pattern ~full ~jobs ppf =
  Fig6.print ppf pattern
    (Fig6.compare_modes ~hold:(hold ~full 20 60) ~jobs ~pattern ())

let table =
  [
    ( "fig4",
      fun ~full ~jobs ppf ->
        Fig4.print ppf
          (Fig4.compare_modes ~failures:(scale ~full 200 1000) ~jobs ()) );
    ( "fig5",
      fun ~full ~jobs ppf ->
        Fig5.print ppf (Fig5.compare_modes ~hold:(hold ~full 3 10) ~jobs ()) );
    ( "fig5sat",
      fun ~full ~jobs ppf ->
        Fig5.print_saturation ppf
          (Fig5.saturation ~hold:(hold ~full 3 10) ~jobs ()) );
    ("fig6a", fig6 Fig6.Gradual);
    ("fig6b", fig6 Fig6.Radical);
    ( "fig7",
      fun ~full ~jobs ppf ->
        Fig7.print ppf
          (Fig7.compare_modes ~hold:(hold ~full 20 180) ~jobs ~ns:[ 5; 17; 65 ]
             ()) );
    ( "fig8",
      fun ~full ~jobs ppf ->
        Fig8.print ppf
          (Fig8.compare_modes ~failures:(scale ~full 150 1000) ~jobs ()) );
    ( "ablation",
      fun ~full ~jobs ppf ->
        let failures = scale ~full 100 200 and quiet = hold ~full 120 300 in
        Ablation.print ppf
          ( Ablation.safety_factor_sweep ~failures ~quiet ~jobs (),
            Ablation.arrival_probability_sweep ~quiet ~jobs (),
            Ablation.list_size_sweep ~jobs (),
            Ablation.estimator_sweep ~jobs () ) );
    ( "reconfig",
      fun ~full ~jobs ppf ->
        Reconfig.print ppf
          (Reconfig.compare_modes ~rounds:(scale ~full 4 8) ~jobs ()) );
    ( "extensions",
      fun ~full ~jobs ppf ->
        Extensions.print ppf (Extensions.run ~hold:(hold ~full 3 10) ~jobs ()) );
    ( "multiraft",
      fun ~full ~jobs ppf ->
        Multiraft_scenario.print ppf
          (Multiraft_scenario.sweep
             ~group_counts:(scale ~full [ 4; 16 ] [ 16; 64 ])
             ~hold:(hold ~full 2 5) ~jobs ()) );
  ]
