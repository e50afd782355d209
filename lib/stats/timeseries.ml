type t = {
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

let create () =
  { times = Array.make 64 0.; values = Array.make 64 0.; len = 0 }

let length t = t.len

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. in
  let values = Array.make (2 * cap) 0. in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.values 0 values 0 t.len;
  t.times <- times;
  t.values <- values

let push t ~time ~value =
  assert (t.len = 0 || time >= t.times.(t.len - 1));
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- time;
  t.values.(t.len) <- value;
  t.len <- t.len + 1

let points t =
  List.init t.len (fun i -> (t.times.(i), t.values.(i)))

type agg = Mean | Sum | Max | Min | Last | Count

let reduce agg vs =
  match (agg, vs) with
  | _, [] -> nan
  | Mean, vs -> List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs)
  | Sum, vs -> List.fold_left ( +. ) 0. vs
  | Max, v :: vs ->
      List.fold_left (fun (acc : float) x -> if acc >= x then acc else x) v vs
  | Min, v :: vs ->
      List.fold_left (fun (acc : float) x -> if acc <= x then acc else x) v vs
  | Last, vs -> List.nth vs (List.length vs - 1)
  | Count, vs -> float_of_int (List.length vs)

let bucket t ~width ~agg =
  if t.len = 0 then []
  else begin
    let t0 = t.times.(0) in
    let bucket_of time = int_of_float ((time -. t0) /. width) in
    let out = ref [] in
    let current = ref (bucket_of t.times.(0)) in
    let pending = ref [] in
    let flush () =
      if !pending <> [] then begin
        let start = t0 +. (width *. float_of_int !current) in
        out := (start, reduce agg (List.rev !pending)) :: !out;
        pending := []
      end
    in
    for i = 0 to t.len - 1 do
      let b = bucket_of t.times.(i) in
      if b <> !current then begin
        flush ();
        current := b
      end;
      pending := t.values.(i) :: !pending
    done;
    flush ();
    List.rev !out
  end

let values_in t ~lo ~hi =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    if t.times.(i) >= lo && t.times.(i) < hi then out := t.values.(i) :: !out
  done;
  !out
