type profile = {
  rtt_ms : float;
  jitter : float;
  loss : float;
  duplicate : float;
}

let profile ?(jitter = 0.) ?(loss = 0.) ?(duplicate = 0.) ~rtt_ms () =
  if rtt_ms < 0. then invalid_arg "Conditions.profile: negative rtt";
  if loss < 0. || loss > 1. then invalid_arg "Conditions.profile: loss not in [0,1]";
  { rtt_ms; jitter; loss; duplicate }

type t = { starts : Des.Time.t array; profiles : profile array }

let constant p = { starts = [| 0 |]; profiles = [| p |] }

let piecewise segments =
  match segments with
  | [] -> invalid_arg "Conditions.piecewise: empty schedule"
  | (t0, _) :: _ ->
      if t0 > Des.Time.zero then
        invalid_arg "Conditions.piecewise: schedule must start at time zero";
      let rec check = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if b <= a then
              invalid_arg "Conditions.piecewise: segments must be ascending";
            check rest
        | _ -> ()
      in
      check segments;
      {
        starts = Array.of_list (List.map fst segments);
        profiles = Array.of_list (List.map snd segments);
      }

let staircase ~hold profiles =
  if hold <= 0 then invalid_arg "Conditions.staircase: hold must be positive";
  piecewise (List.mapi (fun i p -> (i * hold, p)) profiles)

let rtt_staircase ~base ~hold ~rtts_ms =
  staircase ~hold (List.map (fun rtt_ms -> { base with rtt_ms }) rtts_ms)

let loss_staircase ~base ~hold ~losses =
  staircase ~hold (List.map (fun loss -> { base with loss }) losses)

let at t time =
  (* Binary search for the last segment with start <= time. *)
  let n = Array.length t.starts in
  if time <= t.starts.(0) then t.profiles.(0)
  else
    let rec search lo hi =
      (* invariant: starts.(lo) <= time, hi = first index > time or n *)
      if lo + 1 >= hi then t.profiles.(lo)
      else
        let mid = (lo + hi) / 2 in
        if t.starts.(mid) <= time then search mid hi else search lo mid
    in
    search 0 n
