type shard = { index : int; shards : int; seed : int64; quota : int }

(* The shard count of every campaign of more than one trial.  It is a
   constant, not the worker count, so a campaign's result does not depend
   on the host. *)
let max_shards = 4

let plan ~seed ~total =
  let count = Int.max 1 (Int.min max_shards total) in
  if count = 1 then [ { index = 0; shards = 1; seed; quota = total } ]
  else begin
    let base = total / count and extra = total mod count in
    List.init count (fun index ->
        {
          index;
          shards = count;
          seed = Stats.Rng.derive seed index;
          (* First [extra] shards carry one more trial so quotas sum to
             [total]. *)
          quota = (base + if index < extra then 1 else 0);
        })
  end

let all ~jobs thunks =
  let n = List.length thunks in
  if jobs <= 1 || n <= 1 then List.map (fun f -> f ()) thunks
  else begin
    let pool = Pool.create ~domains:(Int.min jobs n) in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.map pool (fun f -> f ()) thunks)
  end

let sharded ~jobs ~seed ~total ~f =
  all ~jobs (List.map (fun s () -> f s) (plan ~seed ~total))
