(* A frozen copy of the Dynatune follower-side tuning stack as it stood
   before its allocation-free rewrite: [Stats.Window], the RTT, EWMA and
   loss estimators, and [Dynatune.Tuner], verbatim but for the module
   paths.  The rewrite promises bit-identical Et, K, h, loss rate and RTT
   statistics; test_tuner.ml drives both side by side to hold it to
   that. *)

module Window = struct
type t = {
  buf : float array;
  mutable head : int; (* index of oldest sample *)
  mutable len : int;
  mutable sum : float;
  mutable pushes_since_rebuild : int;
}

(* Rebuild the running sum from the raw samples every [rebuild_period]
   pushes so that cancellation error from evictions cannot accumulate
   without bound. *)
let rebuild_period = 4096

let create ~capacity =
  if capacity <= 0 then invalid_arg "Window.create: capacity must be positive";
  {
    buf = Array.make capacity 0.;
    head = 0;
    len = 0;
    sum = 0.;
    pushes_since_rebuild = 0;
  }

let capacity t = Array.length t.buf
let length t = t.len

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.sum <- 0.;
  t.pushes_since_rebuild <- 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Window.get: index out of bounds";
  t.buf.((t.head + i) mod Array.length t.buf)

(* The accumulation loops below sum into a local [float ref].  It never
   escapes, so ocamlopt keeps it unboxed in a register: no allocation
   per sample, and no memory round trip either.  (A float argument to a
   non-inlined recursive call, by contrast, is boxed on every call.)
   [std] runs on the tuner's per-heartbeat path.

   The ring's contents are two contiguous runs, [head, head + first)
   then [0, len - first).  Looping over them in that order visits the
   samples oldest first, the summation order of indexing each one by
   [mod], so results are bit-identical without a division per sample. *)
let first_run t = Stdlib.min t.len (Array.length t.buf - t.head)

let rebuild t =
  (* [get] is not inlined, and a non-inlined float return is a fresh box
     per sample; indexing the buffer directly keeps the loop
     allocation-free. *)
  let buf = t.buf and head = t.head and first = first_run t in
  let acc = ref 0. in
  for i = head to head + first - 1 do
    acc := !acc +. buf.(i)
  done;
  for i = 0 to t.len - first - 1 do
    acc := !acc +. buf.(i)
  done;
  t.sum <- !acc;
  t.pushes_since_rebuild <- 0

let push t x =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let old = t.buf.(t.head) in
    t.sum <- t.sum -. old;
    t.buf.(t.head) <- x;
    t.head <- (t.head + 1) mod cap
  end
  else begin
    t.buf.((t.head + t.len) mod cap) <- x;
    t.len <- t.len + 1
  end;
  t.sum <- t.sum +. x;
  t.pushes_since_rebuild <- t.pushes_since_rebuild + 1;
  if t.pushes_since_rebuild >= rebuild_period then rebuild t

let mean t = if t.len = 0 then 0. else t.sum /. float_of_int t.len

(* Two-pass variance over the (bounded) window contents: immune to the
   catastrophic cancellation that the E[x²] − E[x]² shortcut suffers when
   the mean dwarfs the spread. *)
let std t =
  if t.len < 2 then 0.
  else begin
    let n = float_of_int t.len in
    let m = t.sum /. n in
    let buf = t.buf and head = t.head and first = first_run t in
    let acc = ref 0. in
    for i = head to head + first - 1 do
      let d = buf.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    for i = 0 to t.len - first - 1 do
      let d = buf.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. n)
  end

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let min t =
  if t.len = 0 then nan else fold t ~init:infinity ~f:Stdlib.min

let max t =
  if t.len = 0 then nan else fold t ~init:neg_infinity ~f:Stdlib.max

let last t = if t.len = 0 then None else Some (get t (t.len - 1))
let to_list t = List.rev (fold t ~init:[] ~f:(fun acc x -> x :: acc))
end

module Rtt_estimator = struct
type t = { min_size : int; window : Window.t }

let create ~min_size ~max_size =
  if min_size <= 0 || max_size < min_size then
    invalid_arg "Rtt_estimator.create: requires 0 < min_size <= max_size";
  { min_size; window = Window.create ~capacity:max_size }

(* Samples are stored as float milliseconds: the statistics are about
   durations of that magnitude and the window's running sums stay well
   conditioned. *)
let observe t rtt = Window.push t.window (Des.Time.to_ms_f rtt)
let length t = Window.length t.window
let warmed_up t = length t >= t.min_size
let mean_ms t = Window.mean t.window
let std_ms t = Window.std t.window
let mean t = Des.Time.of_ms_f (mean_ms t)
let std t = Des.Time.of_ms_f (std_ms t)

let election_timeout t ~s =
  if not (warmed_up t) then None
  else Some (Des.Time.of_ms_f (mean_ms t +. (s *. std_ms t)))

let clear t = Window.clear t.window
end

module Ewma_estimator = struct
type t = {
  alpha : float;
  beta : float;
  min_samples : int;
  mutable srtt : float;  (* ms *)
  mutable rttvar : float;  (* ms *)
  mutable count : int;
}

let create ?(alpha = 0.125) ~min_samples () =
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Ewma_estimator.create: alpha must be in (0, 1]";
  if min_samples <= 0 then
    invalid_arg "Ewma_estimator.create: min_samples must be positive";
  {
    alpha;
    beta = Float.min 1. (2. *. alpha);
    min_samples;
    srtt = 0.;
    rttvar = 0.;
    count = 0;
  }

let alpha t = t.alpha

let observe t rtt =
  let r = Des.Time.to_ms_f rtt in
  if t.count = 0 then begin
    (* TCP's initialization: first sample seeds both estimators. *)
    t.srtt <- r;
    t.rttvar <- r /. 2.
  end
  else begin
    t.rttvar <-
      ((1. -. t.beta) *. t.rttvar) +. (t.beta *. abs_float (r -. t.srtt));
    t.srtt <- ((1. -. t.alpha) *. t.srtt) +. (t.alpha *. r)
  end;
  if t.count < max_int then t.count <- t.count + 1

let length t = t.count
let warmed_up t = t.count >= t.min_samples
let mean t = Des.Time.of_ms_f t.srtt
let deviation t = Des.Time.of_ms_f t.rttvar

let election_timeout t ~s =
  if not (warmed_up t) then None
  else Some (Des.Time.of_ms_f (t.srtt +. (s *. t.rttvar)))

let clear t =
  t.srtt <- 0.;
  t.rttvar <- 0.;
  t.count <- 0
end

module Loss_estimator = struct
type t = {
  min_size : int;
  max_size : int;
  (* Ascending circular buffer of ids. *)
  buf : int array;
  mutable head : int;
  mutable len : int;
}

let create ~min_size ~max_size =
  if min_size <= 0 || max_size < min_size then
    invalid_arg "Loss_estimator.create: requires 0 < min_size <= max_size";
  { min_size; max_size; buf = Array.make max_size 0; head = 0; len = 0 }

let get t i = t.buf.((t.head + i) mod t.max_size)
let set t i v = t.buf.((t.head + i) mod t.max_size) <- v

(* Index of the first stored id >= [id], in [0, len]. *)
let lower_bound t id =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if get t mid < id then search (mid + 1) hi else search lo mid
  in
  search 0 t.len

let evict_oldest t =
  t.head <- (t.head + 1) mod t.max_size;
  t.len <- t.len - 1

let observe t id =
  let pos = lower_bound t id in
  if pos < t.len && get t pos = id then `Duplicate
  else begin
    if t.len = t.max_size then begin
      (* Evicting the smallest id shifts the insertion point left by one
         unless the new id itself would have been the smallest. *)
      let pos = if pos > 0 then pos - 1 else 0 in
      evict_oldest t;
      (* Shift elements [pos, len) right by one to open a slot. *)
      t.len <- t.len + 1;
      let i = ref (t.len - 1) in
      while !i > pos do
        set t !i (get t (!i - 1));
        decr i
      done;
      set t pos id
    end
    else begin
      t.len <- t.len + 1;
      let i = ref (t.len - 1) in
      while !i > pos do
        set t !i (get t (!i - 1));
        decr i
      done;
      set t pos id
    end;
    `Recorded
  end

let length t = t.len
let warmed_up t = t.len >= t.min_size

let span t =
  if t.len = 0 then None else Some (get t 0, get t (t.len - 1))

let expected t =
  match span t with None -> 0 | Some (lo, hi) -> hi - lo + 1

let loss_rate t =
  if t.len < 2 then 0.
  else
    let e = expected t in
    Stdlib.max 0. (1. -. (float_of_int t.len /. float_of_int e))

let clear t =
  t.head <- 0;
  t.len <- 0
end

module Tuner = struct
  module Config = Dynatune.Config

type phase = Warming | Tuned

type rtt_backend =
  | Window of Rtt_estimator.t
  | Smoothed of Ewma_estimator.t

type t = {
  config : Config.t;
  base_et : Des.Time.span;
  base_h : Des.Time.span;
  rtt : rtt_backend;
  loss : Loss_estimator.t;
  (* Derived values are queried on every heartbeat (to arm the election
     timer and pick the piggybacked h) but change only when a sample is
     recorded, so they are cached behind a dirty flag.  The cached
     numbers are exactly what the direct computation would produce —
     recomputing them eagerly would give bit-identical traces, just three
     O(window) statistics passes per heartbeat instead of one. *)
  mutable dirty : bool;
  mutable cached_et : Des.Time.span;
  mutable cached_k : int;
  mutable cached_h : Des.Time.span;
}

let create config ~election_timeout ~heartbeat_interval =
  match Config.validate config with
  | Error msg -> invalid_arg ("Tuner.create: " ^ msg)
  | Ok config ->
      {
        config;
        base_et = election_timeout;
        base_h = heartbeat_interval;
        rtt =
          (match config.rtt_estimator with
          | Config.Sliding_window ->
              Window
                (Rtt_estimator.create ~min_size:config.min_list_size
                   ~max_size:config.max_list_size)
          | Config.Ewma alpha ->
              Smoothed
                (Ewma_estimator.create ~alpha
                   ~min_samples:config.min_list_size ()));
        loss =
          Loss_estimator.create ~min_size:config.min_list_size
            ~max_size:config.max_list_size;
        dirty = true;
        cached_et = election_timeout;
        cached_k = 1;
        cached_h = heartbeat_interval;
      }

let config t = t.config

let rtt_warmed t =
  match t.rtt with
  | Window w -> Rtt_estimator.warmed_up w
  | Smoothed e -> Ewma_estimator.warmed_up e

let rtt_observe t sample =
  match t.rtt with
  | Window w -> Rtt_estimator.observe w sample
  | Smoothed e -> Ewma_estimator.observe e sample

let rtt_et t ~s =
  match t.rtt with
  | Window w -> Rtt_estimator.election_timeout w ~s
  | Smoothed e -> Ewma_estimator.election_timeout e ~s

let phase t =
  if rtt_warmed t && Loss_estimator.warmed_up t.loss then Tuned else Warming

let observe_heartbeat t ~hb_id ~rtt =
  (match Loss_estimator.observe t.loss hb_id with
  | `Duplicate -> ()
  | `Recorded -> (
      t.dirty <- true;
      match rtt with
      | Some sample -> rtt_observe t sample
      | None -> ()))

let required_heartbeats_for ~p ~x =
  if p <= 0. then 1
  else if p >= 1. then max_int
  else
    (* 1 - p^K >= x  ⟺  K >= log_p(1 - x); both logs are negative. *)
    let k = log (1. -. x) /. log p in
    Stdlib.max 1 (int_of_float (ceil k))

let compute_election_timeout t =
  match (phase t, rtt_et t ~s:t.config.safety_factor) with
  | Tuned, Some et ->
      Des.Time.clamp et ~lo:Config.min_election_timeout
        ~hi:Config.max_election_timeout
  | (Warming | Tuned), _ -> t.base_et

let loss_rate t = Loss_estimator.loss_rate t.loss

let compute_required_heartbeats t ~et =
  match phase t with
  | Warming -> 1
  | Tuned ->
      let p = loss_rate t in
      let k = required_heartbeats_for ~p ~x:t.config.arrival_probability in
      (* K beyond Et / min_h cannot be honoured; clamp so h stays above
         its floor. *)
      let cap = Stdlib.max 1 (et / Config.min_heartbeat_interval) in
      Stdlib.min k cap

let compute_heartbeat_interval t ~et ~k =
  match phase t with
  | Warming -> t.base_h
  | Tuned -> Des.Time.max_span Config.min_heartbeat_interval (et / k)

let refresh t =
  if t.dirty then begin
    let et = compute_election_timeout t in
    let k = compute_required_heartbeats t ~et in
    t.cached_et <- et;
    t.cached_k <- k;
    t.cached_h <- compute_heartbeat_interval t ~et ~k;
    t.dirty <- false
  end

let election_timeout t =
  refresh t;
  t.cached_et

let required_heartbeats t =
  refresh t;
  t.cached_k

let heartbeat_interval t =
  refresh t;
  t.cached_h

let rtt_mean t =
  match t.rtt with
  | Window w -> Rtt_estimator.mean w
  | Smoothed e -> Ewma_estimator.mean e

let rtt_std t =
  match t.rtt with
  | Window w -> Rtt_estimator.std w
  | Smoothed e -> Ewma_estimator.deviation e

let samples t =
  match t.rtt with
  | Window w -> Rtt_estimator.length w
  | Smoothed e -> Ewma_estimator.length e

let reset t =
  (match t.rtt with
  | Window w -> Rtt_estimator.clear w
  | Smoothed e -> Ewma_estimator.clear e);
  Loss_estimator.clear t.loss;
  t.dirty <- true

end
