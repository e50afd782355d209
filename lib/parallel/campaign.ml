type shard = { index : int; shards : int; seed : int64; quota : int }

let plan ?shards ~jobs ~seed ~total () =
  let count =
    match shards with
    | Some s ->
        if s <= 0 then invalid_arg "Campaign.plan: shards must be positive";
        Int.max 1 (Int.min s total)
    | None -> if jobs <= 1 || total <= 1 then 1 else Int.min jobs total
  in
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

let sharded ?shards ~jobs ~seed ~total ~f () =
  match plan ?shards ~jobs ~seed ~total () with
  | [ single ] -> [ f single ]
  | plan when jobs <= 1 ->
      (* A pinned shard count with one worker: the same plan, executed
         sequentially — results and traces bit-identical to the pooled
         run. *)
      List.map f plan
  | plan ->
      let pool = Pool.create ~domains:(Int.min jobs (List.length plan)) in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () -> Pool.map pool f plan)

let all ~jobs thunks =
  let n = List.length thunks in
  if jobs <= 1 || n <= 1 then List.map (fun f -> f ()) thunks
  else begin
    let pool = Pool.create ~domains:(Int.min jobs n) in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.map pool (fun f -> f ()) thunks)
  end
