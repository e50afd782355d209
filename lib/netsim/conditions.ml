type profile = {
  rtt_ms : float;
  jitter : float;
  loss : float;
  duplicate : float;
}

let profile ?(jitter = 0.) ?(loss = 0.) ?(duplicate = 0.) ~rtt_ms () =
  (* Written so that NaN fails every test. *)
  if not (Float.is_finite rtt_ms && rtt_ms >= 0.) then
    invalid_arg "Conditions.profile: rtt_ms must be finite and non-negative";
  if not (Float.is_finite jitter && jitter >= 0.) then
    invalid_arg "Conditions.profile: jitter must be finite and non-negative";
  if not (loss >= 0. && loss <= 1.) then
    invalid_arg "Conditions.profile: loss not in [0,1]";
  if not (duplicate >= 0. && duplicate <= 1.) then
    invalid_arg "Conditions.profile: duplicate not in [0,1]";
  { rtt_ms; jitter; loss; duplicate }

type t = {
  starts : Des.Time.t array;
  mutable segments : segment array;  (* filled once, by [make] *)
}

and segment = {
  seg_schedule : t;
  seg_profile : profile;
  seg_until : Des.Time.t;
}

let make starts profiles =
  let t = { starts; segments = [||] } in
  let n = Array.length starts in
  t.segments <-
    Array.mapi
      (fun i p ->
        {
          seg_schedule = t;
          seg_profile = p;
          seg_until = (if i + 1 < n then starts.(i + 1) else max_int);
        })
      profiles;
  t

let constant p = make [| 0 |] [| p |]

let piecewise segments =
  match segments with
  | [] -> invalid_arg "Conditions.piecewise: empty schedule"
  | (t0, _) :: _ ->
      if t0 > Des.Time.zero then
        invalid_arg "Conditions.piecewise: schedule must start at time zero";
      let rec check = function
        | ((a : Des.Time.t), _) :: ((b, _) :: _ as rest) ->
            if b <= a then
              invalid_arg "Conditions.piecewise: segments must be ascending";
            check rest
        | _ -> ()
      in
      check segments;
      make
        (Array.of_list (List.map fst segments))
        (Array.of_list (List.map snd segments))

let staircase ~hold profiles =
  if hold <= 0 then invalid_arg "Conditions.staircase: hold must be positive";
  piecewise (List.mapi (fun i p -> (i * hold, p)) profiles)

let rtt_staircase ~base ~hold ~rtts_ms =
  let { jitter; loss; duplicate; _ } = base in
  staircase ~hold
    (List.map
       (fun rtt_ms -> profile ~jitter ~loss ~duplicate ~rtt_ms ())
       rtts_ms)

let loss_staircase ~base ~hold ~losses =
  let { rtt_ms; jitter; duplicate; _ } = base in
  staircase ~hold
    (List.map (fun loss -> profile ~jitter ~loss ~duplicate ~rtt_ms ()) losses)

(* Binary search for the last segment with start <= time.  Invariant:
   starts.(lo) <= time, hi = first index > time or n.  Top-level, so a
   lookup allocates no closure. *)
let rec search t time lo hi =
  if lo + 1 >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if t.starts.(mid) <= time then search t time mid hi
    else search t time lo mid

let index t time =
  if time <= t.starts.(0) then 0 else search t time 0 (Array.length t.starts)

let segment_at t time = t.segments.(index t time)
let at t time = (segment_at t time).seg_profile
