module Cluster = Harness.Cluster

type region = Tokyo | London | California | Sydney | Sao_paulo

let regions = [ Tokyo; London; California; Sydney; Sao_paulo ]

let name = function
  | Tokyo -> "tokyo"
  | London -> "london"
  | California -> "california"
  | Sydney -> "sydney"
  | Sao_paulo -> "sao-paulo"

(* Approximate AWS inter-region mean RTTs (ms). *)
let rtt_ms a b =
  let key a b = if a <= b then (a, b) else (b, a) in
  let idx = function
    | Tokyo -> 0
    | London -> 1
    | California -> 2
    | Sydney -> 3
    | Sao_paulo -> 4
  in
  match key (idx a) (idx b) with
  | 0, 0 | 1, 1 | 2, 2 | 3, 3 | 4, 4 -> 0.2
  | 0, 1 -> 210.
  | 0, 2 -> 107.
  | 0, 3 -> 105.
  | 0, 4 -> 256.
  | 1, 2 -> 137.
  | 1, 3 -> 264.
  | 1, 4 -> 186.
  | 2, 3 -> 139.
  | 2, 4 -> 172.
  | 3, 4 -> 308.
  | _ -> assert false

let conditions a b =
  Netsim.Conditions.(
    constant (profile ~rtt_ms:(rtt_ms a b) ~jitter:0.08 ~loss:0.0005 ()))

let apply cluster =
  let ids = Cluster.node_ids cluster in
  if List.length ids <> List.length regions then
    invalid_arg "Geo.apply: the geo scenario needs exactly 5 nodes";
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Cluster.set_pair_conditions cluster (List.nth ids i)
              (List.nth ids j) (conditions a b))
        regions)
    regions
