(* Property-based tests (qcheck) on the core data structures and the
   tuning invariants. *)

module Q = QCheck

let to_alcotest = QCheck_alcotest.to_alcotest

(* {2 Window} *)

let prop_window_matches_batch =
  Q.Test.make ~count:300 ~name:"window stats match batch recomputation"
    Q.(pair (int_range 1 20) (list (float_range (-1000.) 1000.)))
    (fun (capacity, samples) ->
      let w = Stats.Window.create ~capacity in
      List.iter (Stats.Window.push w) samples;
      let kept = Stats.Window.to_list w in
      let n = List.length kept in
      (n = Stdlib.min capacity (List.length samples))
      &&
      if n = 0 then true
      else
        let mean = List.fold_left ( +. ) 0. kept /. float_of_int n in
        let var =
          List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. kept
          /. float_of_int n
        in
        abs_float (Stats.Window.mean w -. mean) < 1e-6
        && abs_float (Stats.Window.std w -. sqrt (Stdlib.max 0. var)) < 1e-6)

let prop_window_keeps_newest =
  Q.Test.make ~count:300 ~name:"window keeps the newest samples"
    Q.(pair (int_range 1 10) (list_of_size (Q.Gen.int_range 0 50) Q.small_nat))
    (fun (capacity, samples) ->
      let w = Stats.Window.create ~capacity in
      let floats = List.map float_of_int samples in
      List.iter (Stats.Window.push w) floats;
      let n = List.length floats in
      let expected =
        if n <= capacity then floats
        else List.filteri (fun i _ -> i >= n - capacity) floats
      in
      Stats.Window.to_list w = expected)

(* [Window] indexing its ring with a [mod] per sample: the reference the
   split loops must match bit for bit, rebuilds included. *)
module Mod_window = struct
  type t = {
    buf : float array;
    mutable head : int;
    mutable len : int;
    mutable sum : float;
    mutable pushes : int;
  }

  (* Stats.Window's rebuild period. *)
  let rebuild_period = 4096

  let create capacity =
    { buf = Array.make capacity 0.; head = 0; len = 0; sum = 0.; pushes = 0 }

  let rebuild t =
    let cap = Array.length t.buf in
    let acc = ref 0. in
    for i = 0 to t.len - 1 do
      acc := !acc +. t.buf.((t.head + i) mod cap)
    done;
    t.sum <- !acc;
    t.pushes <- 0

  let push t x =
    let cap = Array.length t.buf in
    if t.len = cap then begin
      t.sum <- t.sum -. t.buf.(t.head);
      t.buf.(t.head) <- x;
      t.head <- (t.head + 1) mod cap
    end
    else begin
      t.buf.((t.head + t.len) mod cap) <- x;
      t.len <- t.len + 1
    end;
    t.sum <- t.sum +. x;
    t.pushes <- t.pushes + 1;
    if t.pushes >= rebuild_period then rebuild t

  let mean t = if t.len = 0 then 0. else t.sum /. float_of_int t.len

  let std t =
    if t.len < 2 then 0.
    else begin
      let n = float_of_int t.len in
      let m = t.sum /. n in
      let cap = Array.length t.buf in
      let acc = ref 0. in
      for i = 0 to t.len - 1 do
        let d = t.buf.((t.head + i) mod cap) -. m in
        acc := !acc +. (d *. d)
      done;
      sqrt (!acc /. n)
    end
end

let prop_window_matches_mod_indexing =
  Q.Test.make ~count:40 ~name:"window std/mean equal the mod-indexed sums bit for bit"
    Q.(triple (int_range 1 64) (int_range 1 9000) small_nat)
    (fun (capacity, extra, seed) ->
      let rng = Random.State.make [| seed |] in
      let w = Stats.Window.create ~capacity and m = Mod_window.create capacity in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let ok = ref true in
      for _ = 1 to capacity + extra do
        (* Magnitudes six orders apart make the sums order-sensitive. *)
        let x =
          Random.State.float rng 1e6
          *. if Random.State.bool rng then 1. else 1e-6
        in
        Stats.Window.push w x;
        Mod_window.push m x;
        if
          not
            (same (Stats.Window.mean w) (Mod_window.mean m)
            && same (Stats.Window.std w) (Mod_window.std m))
        then ok := false
      done;
      !ok)

(* {2 Engine ordering} *)

let prop_engine_orders_events =
  Q.Test.make ~count:100 ~name:"engine runs events in timestamp order"
    Q.(list (int_range 0 1_000_000))
    (fun times ->
      let e = Des.Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t ->
          ignore
            (Des.Engine.schedule_at e t (fun () -> fired := t :: !fired)))
        times;
      Des.Engine.run e;
      let got = List.rev !fired in
      List.sort compare got = got && List.length got = List.length times)

(* {2 Loss estimator} *)

let prop_loss_rate_bounds =
  Q.Test.make ~count:500 ~name:"loss rate stays in [0, 1)"
    Q.(list (int_range 0 500))
    (fun ids ->
      let l = Dynatune.Loss_estimator.create ~min_size:2 ~max_size:50 in
      List.iter (fun i -> ignore (Dynatune.Loss_estimator.observe l i)) ids;
      let p = Dynatune.Loss_estimator.loss_rate l in
      p >= 0. && p < 1.)

let prop_loss_rate_exact_on_sets =
  Q.Test.make ~count:300 ~name:"loss rate matches the paper's formula"
    Q.(list_of_size (Q.Gen.int_range 2 40) (int_range 0 100))
    (fun ids ->
      let distinct = List.sort_uniq compare ids in
      Q.assume (List.length distinct >= 2);
      let l = Dynatune.Loss_estimator.create ~min_size:2 ~max_size:200 in
      List.iter (fun i -> ignore (Dynatune.Loss_estimator.observe l i)) ids;
      let lo = List.hd distinct
      and hi = List.nth distinct (List.length distinct - 1) in
      let expected =
        1.
        -. (float_of_int (List.length distinct) /. float_of_int (hi - lo + 1))
      in
      abs_float (Dynatune.Loss_estimator.loss_rate l -. expected) < 1e-9)

let prop_loss_observe_insensitive_to_order =
  Q.Test.make ~count:300 ~name:"loss estimate is order-insensitive"
    Q.(list_of_size (Q.Gen.int_range 2 30) (int_range 0 60))
    (fun ids ->
      let run order =
        let l = Dynatune.Loss_estimator.create ~min_size:2 ~max_size:100 in
        List.iter (fun i -> ignore (Dynatune.Loss_estimator.observe l i)) order;
        Dynatune.Loss_estimator.loss_rate l
      in
      run ids = run (List.rev ids))

(* {2 Tuner invariants} *)

let tuner_cfg =
  {
    Dynatune.Config.default with
    Dynatune.Config.min_list_size = 2;
    max_list_size = 50;
  }

let prop_required_heartbeats_minimal =
  Q.Test.make ~count:500 ~name:"K is the minimal satisfying count"
    Q.(pair (float_range 0.01 0.95) (float_range 0.9 0.9999))
    (fun (p, x) ->
      let k = Dynatune.Tuner.required_heartbeats_for ~p ~x in
      let ok n = 1. -. (p ** float_of_int n) >= x -. 1e-12 in
      ok k && (k = 1 || not (ok (k - 1))))

let prop_tuner_h_bounds =
  Q.Test.make ~count:300 ~name:"h stays within [min_h, Et]"
    Q.(
      pair
        (list_of_size (Q.Gen.int_range 2 40) (float_range 0.5 800.))
        (list_of_size (Q.Gen.int_range 0 30) (int_range 0 100)))
    (fun (rtts_ms, drop_ids) ->
      let t = Dynatune.Tuner.create tuner_cfg in
      List.iteri
        (fun i rtt ->
          if not (List.mem i drop_ids) then
            Dynatune.Tuner.observe_heartbeat t ~hb_id:i
              ~rtt:(Some (Des.Time.of_ms_f rtt)))
        rtts_ms;
      let h = Dynatune.Tuner.heartbeat_interval t in
      let et = Dynatune.Tuner.election_timeout t in
      h >= tuner_cfg.Dynatune.Config.min_heartbeat_interval && h <= et)

let prop_tuner_et_bounds =
  Q.Test.make ~count:300 ~name:"tuned Et respects its clamps"
    Q.(list_of_size (Q.Gen.int_range 2 40) (float_range 0.0001 100000.))
    (fun rtts_ms ->
      let t = Dynatune.Tuner.create tuner_cfg in
      List.iteri
        (fun i rtt ->
          Dynatune.Tuner.observe_heartbeat t ~hb_id:i
            ~rtt:(Some (Des.Time.of_ms_f rtt)))
        rtts_ms;
      let et = Dynatune.Tuner.election_timeout t in
      et >= Dynatune.Config.min_election_timeout
      && et <= tuner_cfg.Dynatune.Config.max_election_timeout)

let prop_tuner_reset_restores_defaults =
  Q.Test.make ~count:200 ~name:"reset always restores the defaults"
    Q.(list_of_size (Q.Gen.int_range 0 40) (float_range 1. 1000.))
    (fun rtts_ms ->
      let t = Dynatune.Tuner.create tuner_cfg in
      List.iteri
        (fun i rtt ->
          Dynatune.Tuner.observe_heartbeat t ~hb_id:i
            ~rtt:(Some (Des.Time.of_ms_f rtt)))
        rtts_ms;
      Dynatune.Tuner.reset t;
      Dynatune.Tuner.phase t = Dynatune.Tuner.Warming
      && Dynatune.Tuner.election_timeout t
         = tuner_cfg.Dynatune.Config.default_election_timeout
      && Dynatune.Tuner.heartbeat_interval t
         = tuner_cfg.Dynatune.Config.default_heartbeat_interval)

(* {2 Summary} *)

let prop_summary_percentile_monotone =
  Q.Test.make ~count:300 ~name:"percentile is monotone in q"
    Q.(
      pair
        (list_of_size (Q.Gen.int_range 1 50) (float_range (-100.) 100.))
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (samples, (q1, q2)) ->
      let s = Stats.Summary.of_list samples in
      let lo = Stdlib.min q1 q2 and hi = Stdlib.max q1 q2 in
      Stats.Summary.percentile s lo <= Stats.Summary.percentile s hi +. 1e-9)

let prop_summary_mean_within_range =
  Q.Test.make ~count:300 ~name:"mean lies within [min, max]"
    Q.(list_of_size (Q.Gen.int_range 1 50) (float_range (-1e6) 1e6))
    (fun samples ->
      let s = Stats.Summary.of_list samples in
      Stats.Summary.mean s >= Stats.Summary.min s -. 1e-6
      && Stats.Summary.mean s <= Stats.Summary.max s +. 1e-6)

(* [Summary.of_array] sorts with a float-specialised copy of
   [Array.sort]'s heap sort.  It must leave the same sequence as
   [Array.sort Float.compare] does, equal keys ([0.] and [-0.], NaNs)
   included: every percentile, the extremes, the mean and the std keep
   their bits.  The reference below is the previous summary: the
   polymorphic sort, Welford over the sorted samples, and the same
   interpolation. *)
let prop_summary_sort_matches_stdlib =
  let value =
    Q.Gen.oneof
      [
        Q.Gen.oneofl [ 0.; -0.; nan; -.nan; infinity; neg_infinity; 1.; -1. ];
        Q.Gen.map float_of_int (Q.Gen.int_range (-5) 5);
        Q.Gen.float;
      ]
  in
  Q.Test.make ~count:500 ~name:"summary sort keeps Array.sort's sequence"
    (Q.make
       ~print:Q.Print.(list float)
       (Q.Gen.list_size (Q.Gen.int_range 0 200) value))
    (fun samples ->
      let s = Stats.Summary.of_list samples in
      let sorted = Array.of_list samples in
      Array.sort Float.compare sorted;
      let w = Stats.Welford.create () in
      Array.iter (Stats.Welford.add w) sorted;
      let n = Array.length sorted in
      let percentile q =
        if n = 0 then nan
        else if q <= 0. then sorted.(0)
        else if q >= 100. then sorted.(n - 1)
        else
          let rank = q /. 100. *. float_of_int (n - 1) in
          let lo = int_of_float (floor rank) in
          let hi = Stdlib.min (lo + 1) (n - 1) in
          let frac = rank -. float_of_int lo in
          sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
      in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let qs =
        List.init (Stdlib.max n 1) (fun i ->
            100. *. float_of_int i /. float_of_int (Stdlib.max 1 (n - 1)))
        @ [ 0.; 12.5; 50.; 90.; 99.; 99.9; 100. ]
      in
      List.for_all (fun q -> same (Stats.Summary.percentile s q) (percentile q)) qs
      && (n = 0
         || same (Stats.Summary.min s) sorted.(0)
            && same (Stats.Summary.max s) sorted.(n - 1))
      && same (Stats.Summary.mean s) (Stats.Welford.mean w)
      && same (Stats.Summary.std s) (Stats.Welford.std w))

(* {2 Command codec} *)

let printable_string = Q.string_gen Q.Gen.printable

module C = Kvsm.Command

(* The codec as the length-prefixed format was first written: a
   [Buffer] encoder, and a decoder that copies each length header out
   and parses it with [int_of_string_opt].  The exact-size encoders must
   match its bytes and the in-place decoder its every result. *)
module Reference_codec = struct
  let field buf s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s

  let to_payload (c : C.t) =
    let buf = Buffer.create 32 in
    (match c with
    | C.Put { key; value } ->
        Buffer.add_char buf 'P';
        field buf key;
        field buf value
    | C.Get key ->
        Buffer.add_char buf 'G';
        field buf key
    | C.Delete key ->
        Buffer.add_char buf 'D';
        field buf key
    | C.Cas { key; expect = Some e; value } ->
        Buffer.add_char buf 'C';
        field buf key;
        field buf e;
        field buf value
    | C.Cas { key; expect = None; value } ->
        Buffer.add_char buf 'N';
        field buf key;
        field buf value);
    Buffer.contents buf

  let parse_field s pos =
    match String.index_from_opt s pos ':' with
    | None -> Error "missing length delimiter"
    | Some colon -> (
        match int_of_string_opt (String.sub s pos (colon - pos)) with
        | None -> Error "malformed length"
        | Some len when len < 0 || colon + 1 + len > String.length s ->
            Error "length out of range"
        | Some len -> Ok (String.sub s (colon + 1) len, colon + 1 + len))

  let ( let* ) = Result.bind

  let of_payload s =
    if s = "" then Error "empty payload"
    else
      let finish v pos =
        if pos = String.length s then Ok v else Error "trailing bytes"
      in
      match s.[0] with
      | 'P' ->
          let* key, pos = parse_field s 1 in
          let* value, pos = parse_field s pos in
          finish (C.Put { key; value }) pos
      | 'G' ->
          let* key, pos = parse_field s 1 in
          finish (C.Get key) pos
      | 'D' ->
          let* key, pos = parse_field s 1 in
          finish (C.Delete key) pos
      | 'C' ->
          let* key, pos = parse_field s 1 in
          let* expect, pos = parse_field s pos in
          let* value, pos = parse_field s pos in
          finish (C.Cas { key; expect = Some expect; value }) pos
      | 'N' ->
          let* key, pos = parse_field s 1 in
          let* value, pos = parse_field s pos in
          finish (C.Cas { key; expect = None; value }) pos
      | c -> Error (Printf.sprintf "unknown tag %C" c)
end

(* 0..300 arbitrary bytes: empty fields, one- to three-digit length
   headers, and field bytes that look like headers. *)
let field_string = Q.string_of_size (Q.Gen.int_range 0 300)

let key_of = function
  | C.Put { key; _ } | C.Get key | C.Delete key | C.Cas { key; _ } -> key

let all_tags key value other =
  [
    C.Put { key; value };
    C.Get key;
    C.Delete key;
    C.Cas { key; expect = Some other; value };
    C.Cas { key; expect = None; value };
  ]

(* [scan_put] accepts exactly the payloads [expected] (the decoding
   under test) holds a Put for, and its offsets slice out that Put's key
   and value. *)
let scan_agrees p expected =
  let span = C.put_span () in
  match (C.scan_put span p, expected) with
  | true, Ok (C.Put { key; value }) ->
      String.equal key
        (String.sub p span.key_start (span.key_end - span.key_start))
      && String.equal value
           (String.sub p span.value_start (String.length p - span.value_start))
  | false, (Ok (C.Get _ | C.Delete _ | C.Cas _) | Error _) -> true
  | true, (Ok (C.Get _ | C.Delete _ | C.Cas _) | Error _) | false, Ok (C.Put _)
    ->
      false

let prop_codec_roundtrip =
  Q.Test.make ~count:500 ~name:"command codec roundtrips"
    Q.(triple field_string field_string field_string)
    (fun (key, value, other) ->
      List.for_all
        (fun c ->
          let p = C.to_payload c in
          String.equal p (Reference_codec.to_payload c)
          && (match C.of_payload p with
             | Ok d -> C.equal c d
             | Error _ -> false)
          && (match C.payload_key p with
             | Ok k -> String.equal k key
             | Error _ -> false)
          && scan_agrees p (Ok c))
        (all_tags key value other))

let prop_client_encoder_matches_sprintf_key =
  Q.Test.make ~count:500 ~name:"client Put encoder matches the sprintf key"
    Q.(triple int int field_string)
    (fun (client_id, slot, value) ->
      String.equal
        (C.client_put_payload ~client_id ~slot ~value)
        (Reference_codec.to_payload
           (C.Put { key = Printf.sprintf "c%d-k%d" client_id slot; value })))

(* Bytes near the format (tags, digits, signs, base prefixes,
   separators): free strings, one-byte mutations and truncations of
   valid payloads. *)
let near_payload_gen =
  let open Q.Gen in
  let alphabet = "PGDCNZ0123456789:-+_xab" in
  let byte = map (String.get alphabet) (int_bound (String.length alphabet - 1)) in
  let text = string_size ~gen:byte (int_range 0 12) in
  let valid =
    map3
      (fun tag key value -> C.to_payload (List.nth (all_tags key value key) tag))
      (int_bound 4) text text
  in
  let mutate p i c =
    if p = "" then p
    else begin
      let b = Bytes.of_string p in
      Bytes.set b (i mod String.length p) c;
      Bytes.to_string b
    end
  in
  oneof
    [
      string_size ~gen:byte (int_range 0 24);
      map3 mutate valid nat byte;
      map2 (fun p n -> String.sub p 0 (n mod (String.length p + 1))) valid nat;
    ]

let prop_decoder_matches_reference =
  Q.Test.make ~count:3000 ~name:"in-place decoder agrees with the reference"
    (Q.make ~print:(Printf.sprintf "%S") near_payload_gen)
    (fun p ->
      match Reference_codec.of_payload p with
      | exception Invalid_argument _ -> true
      | expected ->
          (match (expected, C.of_payload p) with
          | Ok a, Ok b -> C.equal a b
          | Error a, Error b -> String.equal a b
          | Ok _, Error _ | Error _, Ok _ -> false)
          && (match (expected, C.payload_key p) with
             | Ok c, Ok k -> String.equal k (key_of c)
             | Error a, Error b -> String.equal a b
             | Ok _, Error _ | Error _, Ok _ -> false)
          && scan_agrees p expected)

(* {2 Store against a copying model}

   [Store] keeps a Put's value as a reference into the committed
   payload.  The model is the plain copying table: every result, lookup,
   digest and snapshot must agree with it, also after the log that held
   the payloads has been compacted. *)

type store_op =
  | S_put of int * string
  | S_get of int
  | S_delete of int
  | S_cas of int * string option * string
  | S_cas_current of int * string  (** expect the model's current value *)

(* "c1-k7" and "c1-k8" share a length and differ in their last byte
   only, so the store's per-length lookup buffer holds one while the
   other is found or missed; the 40- and 57-byte keys are lengths no
   earlier key has. *)
let store_keys =
  [|
    "";
    "k";
    "c1-k7";
    "c1-k8";
    "key:with:colons";
    String.make 12 'K';
    String.init 40 (fun i -> Char.chr (97 + (i mod 26)));
    String.make 57 'L';
  |]

let store_op_gen =
  let open Q.Gen in
  let key = int_bound (Array.length store_keys - 1) in
  let value = string_size ~gen:printable (int_range 0 120) in
  frequency
    [
      (4, map2 (fun k v -> S_put (k, v)) key value);
      (2, map (fun k -> S_get k) key);
      (1, map (fun k -> S_delete k) key);
      (1, map3 (fun k e v -> S_cas (k, e, v)) key (opt value) value);
      (2, map2 (fun k v -> S_cas_current (k, v)) key value);
    ]

let store_op_print = function
  | S_put (k, v) -> Printf.sprintf "put %d %S" k v
  | S_get k -> Printf.sprintf "get %d" k
  | S_delete k -> Printf.sprintf "del %d" k
  | S_cas (k, e, v) ->
      Printf.sprintf "cas %d %s %S" k
        (match e with None -> "-" | Some e -> Printf.sprintf "%S" e)
        v
  | S_cas_current (k, v) -> Printf.sprintf "cas-current %d %S" k v

(* The digest and snapshot formats over the model's bindings, sorted by
   polymorphic compare as the store once sorted them. *)
let model_bindings model =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

let model_digest model =
  let buf = Buffer.create 64 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf v;
      Buffer.add_char buf '\x01')
    (model_bindings model);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let model_snapshot ~applied model =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int applied);
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, v) ->
      Reference_codec.field buf k;
      Reference_codec.field buf v)
    (model_bindings model);
  Buffer.contents buf

let prop_store_matches_copying_model =
  Q.Test.make ~count:300 ~name:"store applies Puts by reference like a copying table"
    (Q.make
       ~print:Q.Print.(list store_op_print)
       (Q.Gen.list_size (Q.Gen.int_range 0 80) store_op_gen))
    (fun ops ->
      let module S = Kvsm.Store in
      let log = Raft.Log.create () and store = S.create () in
      let model = Hashtbl.create 8 in
      let command = function
        | S_put (k, value) -> C.Put { key = store_keys.(k); value }
        | S_get k -> C.Get store_keys.(k)
        | S_delete k -> C.Delete store_keys.(k)
        | S_cas (k, expect, value) -> C.Cas { key = store_keys.(k); expect; value }
        | S_cas_current (k, value) ->
            let key = store_keys.(k) in
            C.Cas { key; expect = Hashtbl.find_opt model key; value }
      in
      let expected = function
        | C.Put { key; value } ->
            Hashtbl.replace model key value;
            S.Written
        | C.Get key -> S.Value (Hashtbl.find_opt model key)
        | C.Delete key ->
            let existed = Hashtbl.mem model key in
            Hashtbl.remove model key;
            S.Deleted existed
        | C.Cas { key; expect; value } ->
            if Hashtbl.find_opt model key = expect then begin
              Hashtbl.replace model key value;
              S.Swapped true
            end
            else S.Swapped false
      in
      let agrees s =
        Array.for_all (fun k -> S.find s k = Hashtbl.find_opt model k) store_keys
        && S.size s = Hashtbl.length model
        && String.equal (S.state_digest s) (model_digest model)
      in
      let snapshot_agrees () =
        let snap = S.serialize store in
        String.equal snap (model_snapshot ~applied:(List.length ops) model)
        && match S.of_serialized snap with Ok r -> agrees r | Error _ -> false
      in
      let applied =
        List.for_all
          (fun op ->
            let cmd = command op in
            let entry =
              Raft.Log.append_new log ~term:1
                (Raft.Log.Data
                   { payload = C.to_payload cmd; client_id = 1; seq = 0 })
            in
            let got = S.apply_entry store entry in
            got = Some (expected cmd))
          ops
      in
      applied && agrees store && snapshot_agrees ()
      && begin
           if Raft.Log.last_index log > 0 then
             Raft.Log.compact log ~upto:(Raft.Log.last_index log);
           Gc.minor ();
           agrees store && snapshot_agrees ()
         end)

(* {2 Log invariants} *)

let prop_log_append_grows_monotonically =
  Q.Test.make ~count:300 ~name:"append_new yields dense increasing indices"
    Q.(list_of_size (Q.Gen.int_range 1 30) (int_range 1 5))
    (fun terms ->
      let sorted_terms = List.sort compare terms in
      let l = Raft.Log.create () in
      List.iteri
        (fun i term ->
          let e = Raft.Log.append_new l ~term Raft.Log.Noop in
          assert (e.Raft.Log.index = i + 1))
        sorted_terms;
      Raft.Log.last_index l = List.length terms
      && Raft.Log.last_term l = List.nth sorted_terms (List.length terms - 1))

let prop_log_compaction_preserves_suffix =
  Q.Test.make ~count:300 ~name:"compaction preserves the surviving suffix"
    Q.(pair (int_range 1 40) (int_range 0 40))
    (fun (n, cut) ->
      let cut = Stdlib.min cut n in
      let l = Raft.Log.create () in
      let entries =
        List.init n (fun i ->
            Raft.Log.append_new l ~term:(1 + (i / 5)) Raft.Log.Noop)
      in
      Raft.Log.compact l ~upto:cut;
      Raft.Log.last_index l = n
      && Raft.Log.snapshot_index l = cut
      && List.for_all
           (fun (e : Raft.Log.entry) ->
             if e.index <= cut then Raft.Log.term_at l e.index = None || e.index = cut
             else Raft.Log.term_at l e.index = Some e.term)
           entries)

let prop_log_compaction_then_append_consistent =
  Q.Test.make ~count:300 ~name:"appends after compaction stay dense"
    Q.(pair (int_range 1 20) (int_range 1 20))
    (fun (n, extra) ->
      let l = Raft.Log.create () in
      for _ = 1 to n do
        ignore (Raft.Log.append_new l ~term:1 Raft.Log.Noop)
      done;
      Raft.Log.compact l ~upto:n;
      let appended =
        List.init extra (fun _ -> Raft.Log.append_new l ~term:2 Raft.Log.Noop)
      in
      List.for_all2
        (fun (e : Raft.Log.entry) i -> e.index = n + i + 1)
        appended
        (List.init extra Fun.id)
      && Raft.Log.last_index l = n + extra)

let prop_store_snapshot_roundtrip =
  Q.Test.make ~count:200 ~name:"store snapshots roundtrip any contents"
    Q.(list (pair printable_string printable_string))
    (fun bindings ->
      let s = Kvsm.Store.create () in
      List.iter
        (fun (key, value) ->
          ignore (Kvsm.Store.apply_command s (Kvsm.Command.Put { key; value })))
        bindings;
      match Kvsm.Store.of_serialized (Kvsm.Store.serialize s) with
      | Ok restored ->
          Kvsm.Store.state_digest restored = Kvsm.Store.state_digest s
      | Error _ -> false)

let prop_ewma_bounded_by_extremes =
  Q.Test.make ~count:300 ~name:"ewma srtt stays within sample extremes"
    Q.(
      pair (float_range 0.01 1.)
        (list_of_size (Q.Gen.int_range 1 60) (float_range 1. 1000.)))
    (fun (alpha, samples_ms) ->
      let e = Dynatune.Ewma_estimator.create ~alpha ~min_samples:1 () in
      List.iter
        (fun ms -> Dynatune.Ewma_estimator.observe e (Des.Time.of_ms_f ms))
        samples_ms;
      let srtt = Des.Time.to_ms_f (Dynatune.Ewma_estimator.mean e) in
      let lo = List.fold_left Stdlib.min infinity samples_ms in
      let hi = List.fold_left Stdlib.max neg_infinity samples_ms in
      srtt >= lo -. 1e-6 && srtt <= hi +. 1e-6)

let prop_ewma_constant_input_converges =
  Q.Test.make ~count:200 ~name:"ewma on a constant input equals it"
    Q.(pair (float_range 0.05 1.) (float_range 1. 500.))
    (fun (alpha, level) ->
      let e = Dynatune.Ewma_estimator.create ~alpha ~min_samples:1 () in
      for _ = 1 to 300 do
        Dynatune.Ewma_estimator.observe e (Des.Time.of_ms_f level)
      done;
      abs_float (Des.Time.to_ms_f (Dynatune.Ewma_estimator.mean e) -. level)
      < 1.
      && Des.Time.to_ms_f (Dynatune.Ewma_estimator.deviation e) < level)

let prop_partition_reachability_is_equivalence =
  Q.Test.make ~count:200 ~name:"partition reachability is an equivalence"
    Q.(list_of_size (Q.Gen.int_range 0 8) (int_range 0 7))
    (fun group_of ->
      (* Node i belongs to the group group_of[i] (others implicit). *)
      let n = 8 in
      let engine = Des.Engine.create () in
      let f : unit Netsim.Fabric.t = Netsim.Fabric.create engine in
      let ids = Netsim.Node_id.range n in
      List.iter (Netsim.Fabric.add_node f) ids;
      let groups =
        List.init 8 (fun g ->
            List.filteri (fun i _ -> List.nth_opt group_of i = Some g) ids)
      in
      let groups = List.filter (fun l -> l <> []) groups in
      Netsim.Fabric.partition f groups;
      let reach a b =
        Netsim.Fabric.reachable f (List.nth ids a) (List.nth ids b)
      in
      let ok = ref true in
      for a = 0 to n - 1 do
        if not (reach a a) then ok := false;
        for b = 0 to n - 1 do
          if reach a b <> reach b a then ok := false;
          for c = 0 to n - 1 do
            if reach a b && reach b c && not (reach a c) then ok := false
          done
        done
      done;
      !ok)

let prop_conditions_piecewise_lookup =
  Q.Test.make ~count:300 ~name:"piecewise lookup matches linear scan"
    Q.(
      pair
        (list_of_size (Q.Gen.int_range 1 10) (float_range 1. 500.))
        (int_range 0 10_000))
    (fun (rtts, query_ms) ->
      let hold = Des.Time.ms 700 in
      let c =
        Netsim.Conditions.rtt_staircase
          ~base:(Netsim.Conditions.profile ~rtt_ms:0. ())
          ~hold ~rtts_ms:rtts
      in
      let query = Des.Time.ms query_ms in
      let expected_idx = Stdlib.min (query / hold) (List.length rtts - 1) in
      (Netsim.Conditions.at c query).Netsim.Conditions.rtt_ms
      = List.nth rtts expected_idx)

(* {2 Event queue vs. a sorted-list model}

   The engine's queue (a lazy-cancel heap with a timing wheel in front
   of it and an event pool behind both) must behave like the obvious
   specification: the pending events in a list, each step firing the
   smallest [(at, seq)].  Ops schedule on the heap path ([push_event])
   and on the wheel path ([push_timer]), cancel heap- and wheel-resident
   events, re-arm them ([repark] in place while parked), and cancel
   bursts of heap entries large enough to force compaction.  The offset generator lands on same-tick bursts, on the
   level-0/1 and level-1/2 cascade boundaries, and on past-horizon
   deadlines (which overflow to the heap).  [Q_slot] aims a wheel
   deadline at a chosen slot of a chosen level, reached on the cursor's
   current rotation or, for a slot behind the cursor's, the next one: so
   deadlines land in every occupancy word of each level, on both sides
   of the cursor's own word (the summary scan's wrap-around cases).

   Firing runs the engine's merged drain by hand, with a flush budget,
   so a wheel flush that never terminates fails with the wheel's state
   instead of hanging the suite. *)

type queue_op =
  | Q_heap of int  (** schedule at now + offset on the heap path *)
  | Q_timer of int  (** schedule at now + offset on the wheel path *)
  | Q_cancel of int  (** cancel the k-th pending event (mod count) *)
  | Q_dead_burst of int  (** schedule n heap events, then cancel them all *)
  | Q_advance of int  (** fire n events *)
  | Q_slot of int * int * int
      (** on the wheel path, in (level, slot), at a sub-slot offset *)
  | Q_rearm of int * int
      (** move the k-th pending event (mod count) to now + offset:
          [repark] when it is parked, else cancel and schedule anew *)

let queue_op_gen =
  let tick = 1 lsl Des.Event_heap.tick_bits in
  let offset =
    Q.Gen.oneof
      [
        (* same-deadline / same-tick bursts *)
        Q.Gen.int_range 0 (4 * tick);
        (* around the level-0/1 cascade boundary (256 ticks) *)
        Q.Gen.map (fun k -> k * tick) (Q.Gen.int_range 250 262);
        (* anywhere in level 0/1 *)
        Q.Gen.int_range 0 (300 * tick);
        (* around the level-1/2 boundary (65536 ticks) *)
        Q.Gen.map (fun k -> k * tick) (Q.Gen.int_range 65_530 65_545);
        (* beyond the wheel's horizon: must overflow into the heap *)
        Q.Gen.map (fun k -> k * tick) (Q.Gen.int_range 16_000_000 17_000_000);
      ]
  in
  Q.Gen.frequency
    [
      (3, Q.Gen.map (fun o -> Q_heap o) offset);
      (3, Q.Gen.map (fun o -> Q_timer o) offset);
      (3, Q.Gen.map (fun k -> Q_cancel k) (Q.Gen.int_range 0 100));
      (3, Q.Gen.map2 (fun k o -> Q_rearm (k, o)) (Q.Gen.int_range 0 100) offset);
      (1, Q.Gen.map (fun n -> Q_dead_burst n) (Q.Gen.int_range 65 150));
      (2, Q.Gen.map (fun n -> Q_advance n) (Q.Gen.int_range 1 20));
      ( 3,
        Q.Gen.map3
          (fun level slot within -> Q_slot (level, slot, within))
          (Q.Gen.int_range 0 2) (Q.Gen.int_range 0 255)
          (Q.Gen.int_range 0 ((1 lsl 36) - 1)) );
    ]

let queue_op_print = function
  | Q_heap o -> Printf.sprintf "heap(+%d)" o
  | Q_timer o -> Printf.sprintf "timer(+%d)" o
  | Q_cancel k -> Printf.sprintf "cancel(%d)" k
  | Q_dead_burst n -> Printf.sprintf "dead_burst(%d)" n
  | Q_advance n -> Printf.sprintf "advance(%d)" n
  | Q_slot (l, i, w) -> Printf.sprintf "slot(%d,%d,+%d)" l i w
  | Q_rearm (k, o) -> Printf.sprintf "rearm(%d,+%d)" k o

let prop_queue_matches_model =
  Q.Test.make ~count:200 ~name:"wheel and heap fire identically"
    (Q.make
       ~print:Q.Print.(list queue_op_print)
       (Q.Gen.list_size (Q.Gen.int_range 0 120) queue_op_gen))
    (fun ops ->
      let module H = Des.Event_heap in
      let h = H.create () in
      let noop () = () in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let now = ref 0 and next_seq = ref 0 in
      let model = ref [] (* pending (at, seq) *) in
      let handles = ref [] (* (seq, event) of pending events *) in
      let pending () = H.live_length h + (H.stats h).H.wheel_occupancy in
      let schedule ~wheel offset =
        let s = !next_seq in
        incr next_seq;
        let at = !now + offset in
        let ev = H.make h ~at ~seq:s noop in
        if wheel then H.push_timer h ~now:!now ev else H.push_event h ev;
        model := (at, s) :: !model;
        handles := (s, ev) :: !handles;
        s
      in
      let cancel s =
        let ev = List.assoc s !handles in
        handles := List.remove_assoc s !handles;
        model := List.filter (fun (_, s') -> s' <> s) !model;
        H.cancel ev;
        expect (not (H.is_pending ev));
        (* Cancel-after-recycle: a wheel-resident cancel has already put
           the record back in the pool, and nothing has reused it yet,
           so cancelling the stale handle again must change nothing. *)
        let cancelled = (H.stats h).H.cancelled
        and pending_before = pending ()
        and pool = H.pool_size h in
        H.cancel ev;
        expect
          ((H.stats h).H.cancelled = cancelled
          && pending () = pending_before
          && H.pool_size h = pool)
      in
      (* A re-arm as [Des.Timer.arm] does it: in place while parked,
         counted as one in-place cancel, compacting the heap when the
         alloc it replaces would have, and leaving the pool and the
         pending count as they were. *)
      let rearm s offset =
        let ev = List.assoc s !handles in
        let st = H.stats h in
        let cancelled = st.H.cancelled
        and in_place = st.H.cancelled_in_place
        and compactions = st.H.compactions
        and compacts = st.H.dead > 64 && st.H.dead > H.live_length h
        and pending_before = pending ()
        and pool = H.pool_size h in
        let at = !now + offset and s' = !next_seq in
        if H.repark ev ~now:!now ~at ~seq:s' then begin
          incr next_seq;
          handles := (s', ev) :: List.remove_assoc s !handles;
          model := (at, s') :: List.filter (fun (_, x) -> x <> s) !model;
          expect
            (H.is_pending ev && ev.H.at = at && ev.H.seq = s'
            && st.H.cancelled = cancelled + 1
            && st.H.cancelled_in_place = in_place + 1
            && st.H.compactions = compactions + Bool.to_int compacts
            && pending () = pending_before
            && H.pool_size h = pool)
        end
        else begin
          expect
            (st.H.cancelled = cancelled && st.H.cancelled_in_place = in_place);
          cancel s;
          ignore (schedule ~wheel:true offset : int)
        end
      in
      (* The engine's merged drain: the heap top may fire only while it
         is strictly before everything the wheel could still owe. *)
      let rec next_live fuel =
        let top = H.top_live h in
        let lb = H.next_due_ns h in
        if lb = max_int || (top != H.never && top.H.at < lb) then top
        else if fuel = 0 then
          failwith
            (Printf.sprintf
               "flush budget exhausted: cursor=%d linked=%d lb=%d top_at=%s \
                now=%d"
               (H.cursor_tick h) (H.stats h).H.wheel_occupancy lb
               (if top == H.never then "none" else string_of_int top.H.at)
               !now)
        else begin
          H.flush_next h;
          next_live (fuel - 1)
        end
      in
      let fire_one () =
        let top = next_live 100_000 in
        match List.sort compare !model with
        | [] -> expect (top == H.never)
        | next :: rest ->
            model := rest;
            if top == H.never then expect false
            else begin
              let at = top.H.at and s = top.H.seq in
              H.pop_top h;
              now := at;
              handles := List.remove_assoc s !handles;
              expect ((at, s) = next)
            end
      in
      let step = function
        | Q_heap o -> ignore (schedule ~wheel:false o : int)
        | Q_timer o -> ignore (schedule ~wheel:true o : int)
        | Q_cancel k -> (
            match !handles with
            | [] -> ()
            | hs -> cancel (fst (List.nth hs (k mod List.length hs))))
        | Q_rearm (k, o) -> (
            match !handles with
            | [] -> ()
            | hs -> rearm (fst (List.nth hs (k mod List.length hs))) o)
        | Q_dead_burst n ->
            List.iter cancel
              (List.init n (fun i -> schedule ~wheel:false (i * 1000)))
        | Q_advance n ->
            for _ = 1 to n do
              fire_one ()
            done
        | Q_slot (level, slot, within) ->
            (* The first tick at or after the cursor whose level-[level]
               slot is [slot], plus [within]'s low bits as ticks inside
               that slot and its next 20 bits as ns inside the tick. *)
            let shift = 8 * level and tick_bits = H.tick_bits in
            let base = Int.max (H.cursor_tick h) (!now lsr tick_bits) in
            let c = base lsr shift in
            let tick =
              Int.max base
                (((c + ((slot - c) land 255)) lsl shift)
                + (within land ((1 lsl shift) - 1)))
            in
            let ns = (within lsr 16) land ((1 lsl tick_bits) - 1) in
            let at = Int.max !now ((tick lsl tick_bits) + ns) in
            ignore (schedule ~wheel:true (at - !now) : int)
      in
      List.iter
        (fun op ->
          step op;
          expect (pending () = List.length !model))
        ops;
      while !model <> [] do
        fire_one ()
      done;
      fire_one ();
      let st = H.stats h in
      expect (H.pool_size h <= st.H.high_water + st.H.wheel_high_water);
      !ok)

(* {2 Timer re-arm against cancel + schedule}

   [Des.Timer.arm] moves a timer's event in place while it is parked in
   the wheel.  Two engines run the same steps: one arms [Des.Timer]s,
   the other reference timers that always cancel and schedule anew (the
   arm before the in-place path).  Both must fire the same labels at the
   same instants, in the order of a sorted [(at, seq)] model, and agree
   on every queue statistic after every step (cancels, in-place
   cancels, cascades, high-water marks, pool size); the cancels also
   match the model's count.  Steps re-arm a timer while it is parked,
   while it is due in the tick being drained (so in the heap: the
   fallback), after it fired, and disarm it; one-shot events keep the
   heap busy. *)

type timer_step =
  | T_arm of int * int  (** timer k (mod count) after a span *)
  | T_disarm of int
  | T_event of int  (** a one-shot op event after a span *)
  | T_fire of int  (** step n events *)

let timer_step_gen =
  let tick = 1 lsl Des.Event_heap.tick_bits in
  let span =
    Q.Gen.oneof
      [
        (* inside the tick being drained, or the next one *)
        Q.Gen.int_range 0 (2 * tick);
        Q.Gen.int_range 0 (300 * tick);
        Q.Gen.map (fun k -> k * tick) (Q.Gen.int_range 250 262);
        Q.Gen.map (fun k -> k * tick) (Q.Gen.int_range 65_530 65_545);
      ]
  in
  Q.Gen.frequency
    [
      (6, Q.Gen.map2 (fun k s -> T_arm (k, s)) (Q.Gen.int_range 0 7) span);
      (1, Q.Gen.map (fun k -> T_disarm k) (Q.Gen.int_range 0 7));
      (2, Q.Gen.map (fun s -> T_event s) span);
      (3, Q.Gen.map (fun n -> T_fire n) (Q.Gen.int_range 1 6));
    ]

let timer_step_print = function
  | T_arm (k, s) -> Printf.sprintf "arm(%d,+%d)" k s
  | T_disarm k -> Printf.sprintf "disarm(%d)" k
  | T_event s -> Printf.sprintf "event(+%d)" s
  | T_fire n -> Printf.sprintf "fire(%d)" n

type ref_timer = { mutable ref_pending : Des.Engine.handle }

let prop_timer_rearm_matches_reschedule =
  Q.Test.make ~count:300 ~name:"timer re-arm in place = cancel + schedule"
    (Q.make
       ~print:Q.Print.(list timer_step_print)
       (Q.Gen.list_size (Q.Gen.int_range 0 150) timer_step_gen))
    (fun steps ->
      let n = 8 in
      let e_new = Des.Engine.create () and e_ref = Des.Engine.create () in
      let fired_new = ref [] and fired_ref = ref [] in
      let timers =
        Array.init n (fun k ->
            Des.Timer.create e_new (fun () ->
                fired_new := (k, Des.Engine.now e_new) :: !fired_new))
      in
      let ref_fire =
        Des.Engine.register_op e_ref (fun rt () (k : int) ->
            rt.ref_pending <- Des.Engine.never;
            fired_ref := (k, Des.Engine.now e_ref) :: !fired_ref)
      in
      let refs = Array.init n (fun _ -> { ref_pending = Des.Engine.never }) in
      let event_op e fired =
        Des.Engine.register_op e (fun () () (label : int) ->
            fired := (label, Des.Engine.now e) :: !fired)
      in
      let ev_new = event_op e_new fired_new and ev_ref = event_op e_ref fired_ref in
      let ok = ref true in
      let expect b = if not b then ok := false in
      (* The model: pending [(at, seq, label)], each timer's pending
         [(at, seq)], and the cancels so far. *)
      let model = ref [] and armed = Array.make n None in
      let now = ref 0 and next_seq = ref 0 and next_label = ref n in
      let cancels = ref 0 in
      let add at label =
        let s = !next_seq in
        incr next_seq;
        model := (at, s, label) :: !model;
        (at, s)
      in
      let drop k =
        match armed.(k) with
        | None -> ()
        | Some (_, s) ->
            incr cancels;
            armed.(k) <- None;
            model := List.filter (fun (_, s', _) -> s' <> s) !model
      in
      let fire_one () =
        let stepped_new = Des.Engine.step e_new
        and stepped_ref = Des.Engine.step e_ref in
        match List.sort compare !model with
        | [] -> expect ((not stepped_new) && not stepped_ref)
        | (at, _, label) :: rest ->
            model := rest;
            if label < n then armed.(label) <- None;
            now := at;
            expect
              (stepped_new && stepped_ref
              && List.hd !fired_new = (label, at)
              && List.hd !fired_ref = (label, at))
      in
      let step = function
        | T_arm (k, span) ->
            let k = k mod n in
            drop k;
            armed.(k) <- Some (add (!now + span) k);
            Des.Timer.arm timers.(k) span;
            let rt = refs.(k) in
            Des.Engine.cancel rt.ref_pending;
            rt.ref_pending <- Des.Engine.schedule_timer_op e_ref span ref_fire rt () k
        | T_disarm k ->
            let k = k mod n in
            drop k;
            Des.Timer.disarm timers.(k);
            Des.Engine.cancel refs.(k).ref_pending;
            refs.(k).ref_pending <- Des.Engine.never
        | T_event span ->
            let label = !next_label in
            incr next_label;
            ignore (add (!now + span) label : int * int);
            Des.Engine.schedule_op_after e_new span ev_new () () label;
            Des.Engine.schedule_op_after e_ref span ev_ref () () label
        | T_fire m ->
            for _ = 1 to m do
              fire_one ()
            done
      in
      let same_stats () =
        let a = Des.Engine.stats e_new and b = Des.Engine.stats e_ref in
        expect (a = b && a.Des.Engine.cancelled = !cancels)
      in
      List.iter
        (fun s ->
          step s;
          same_stats ())
        steps;
      while !model <> [] do
        fire_one ()
      done;
      fire_one ();
      same_stats ();
      Array.iteri
        (fun k t -> expect (Des.Timer.is_armed t = (armed.(k) <> None)))
        timers;
      !ok)

(* {2 Pipelined replication}

   End-to-end convergence of the replication engine v2 under a hostile
   link: random loss and duplication (the datagram heartbeats the tuner
   and the stalled-window nudge ride on), jitter-induced reordering, and
   a random follower sleeping through part of the write burst.  Whatever
   interleaving of stale nacks, rewinds and retransmissions results, a
   quiet period must leave every replica with the same store. *)

let prop_pipelined_replication_converges =
  Q.Test.make ~count:10
    ~name:"pipelined replication converges under loss/dup/reorder"
    Q.(
      quad (int_range 1 10_000)
        (float_range 0. 0.12)
        (float_range 0. 0.08)
        (int_range 0 3))
    (fun (seed, loss, duplicate, victim_pick) ->
      let config =
        Raft.Config.with_replication ~max_inflight_appends:4
          ~append_backpressure:8 ~max_entries_per_append:4
          (Raft.Config.dynatune ())
      in
      let conditions =
        Netsim.Conditions.(
          constant (profile ~rtt_ms:20. ~jitter:0.3 ~loss ~duplicate ()))
      in
      let c =
        Harness.Cluster.create ~seed:(Int64.of_int seed) ~n:5 ~config
          ~conditions ~check:Check.Always ()
      in
      Netsim.Fabric.set_uniform_serialization (Harness.Cluster.fabric c)
        (Des.Time.us 50);
      Harness.Cluster.start c;
      match Harness.Cluster.await_leader c ~timeout:(Des.Time.sec 30) with
      | None -> false
      | Some leader ->
          let leader = Raft.Node.id leader in
          let victim =
            List.nth
              (List.filter
                 (fun id -> not (Netsim.Node_id.equal id leader))
                 (Harness.Cluster.node_ids c))
              victim_pick
          in
          let victim = Netsim.Node_id.to_int victim in
          let burst i =
            Harness.Fault.(
              (if i = 8 then [ Pause victim ]
               else if i = 22 then [ Resume victim ]
               else [])
              @ [
                  Write { seq = i; key = Printf.sprintf "p:%d" i; value = "v" };
                  Run (Des.Time.ms 25);
                ])
          in
          let acked = ref [] in
          let write =
            Harness.Fault.submit c ~client_id:1 ~acked:(fun k ->
                acked := k :: !acked)
          in
          ignore
            (Harness.Fault.run c ~write
               (List.concat_map burst (List.init 30 succ)
               @ [ Harness.Fault.Run (Des.Time.sec 15) ])
              : Harness.Fault.plan);
          Result.is_ok (Harness.Fault.verify c ~acked:!acked))

(* {2 Message pool safety}

   The perf-guard hot path recycles RPC records through [Rpc.Pool]:
   released at delivery, reallocated by the next send.  The invariant
   the @perf plans depend on: a record handed to the fabric is never
   recycled while its delivery is still in flight.  Each record carries
   a generation stamp the pool bumps on every reallocation, so the
   receiver can detect a recycle: the stamp at delivery must equal the
   stamp at send.  Exercised under randomized loss (never-released
   records must not wedge or alias the free list), duplication (the
   second copy must be a gen-0 clone, not the pooled record), and
   jitter-induced reordering. *)
let prop_pool_recycle_never_aliases_inflight =
  Q.Test.make ~count:60
    ~name:"pooled append_request never recycled while in flight"
    Q.(
      quad (float_range 0. 0.4) (float_range 0. 0.4) (float_range 0. 1.)
        (pair (int_range 1 80) small_nat))
    (fun (loss, duplicate, jitter, (msgs, seed)) ->
      let engine = Des.Engine.create ~seed:(Int64.of_int seed) () in
      let fabric = Netsim.Fabric.create engine in
      let a = Netsim.Node_id.of_int 0 and b = Netsim.Node_id.of_int 1 in
      List.iter (Netsim.Fabric.add_node fabric) [ a; b ];
      Netsim.Fabric.set_uniform_conditions fabric
        (Netsim.Conditions.constant
           (Netsim.Conditions.profile ~rtt_ms:10. ~jitter ~loss ~duplicate ()));
      Netsim.Fabric.set_dup_clone fabric Raft.Rpc.Pool.clone_for_dup;
      let pool = Raft.Rpc.Pool.create () in
      (* Outstanding-delivery count per physical record (pool reuse
         keeps the population tiny, so an identity assoc list is fine).
         The receiver cannot tell a recycled record from the newer send
         that recycled it — by design, they are the same bytes — so the
         invariant is enforced on the record's life cycle instead:
         - the pool must never hand out a record whose previous send is
           still in flight (count > 0 at allocation), and
         - a pooled delivery must find exactly the one outstanding
           flight it belongs to (count >= 1 at delivery; 0 means its
           release was already consumed — a double release). *)
      let tracked = ref [] in
      let count_of msg =
        match List.find_opt (fun (m, _) -> m == msg) !tracked with
        | Some (_, c) -> c
        | None ->
            let c = ref 0 in
            tracked := (msg, c) :: !tracked;
            c
      in
      let ok = ref true in
      Netsim.Fabric.set_handler fabric b (fun ~src:_ msg ->
          (* gen 0 records are dup clones (or hand-built): unpooled by
             construction, so they cannot alias the free list *)
          if Raft.Rpc.Pool.generation msg > 0 then begin
            let c = count_of msg in
            if !c < 1 then ok := false else decr c
          end;
          Raft.Rpc.Pool.release pool msg);
      for i = 1 to msgs do
        let msg =
          Raft.Rpc.Pool.append_request pool ~term:1 ~prev_index:i ~prev_term:1
            ~entries:[||] ~commit:0
        in
        let c = count_of msg in
        if !c > 0 then ok := false;
        incr c;
        Netsim.Fabric.send fabric Netsim.Transport.Datagram ~cause:0 ~src:a
          ~dst:b msg;
        (* uneven spacing interleaves in-flight windows across sends *)
        Des.Engine.run_for engine (Des.Time.ms (i mod 7))
      done;
      Des.Engine.run_for engine (Des.Time.sec 5);
      let _hb, _hbr, ar, _apr = Raft.Rpc.Pool.sizes pool in
      (* Exactly-once release: the free list cannot outgrow the sends. *)
      !ok && ar <= msgs)

(* {2 ReadIndex against the per-read set rule}

   The leader's read bookkeeping replays the rule it replaced: each
   pending read keeps the set of voters whose heartbeat echo was sent at
   or after the read's registration, and a read is served once its
   set, plus the leader's own vote, reaches a quorum — judged on every
   heartbeat response, with voter status and quorum taken at that
   response.  Served reads go out newest first; a deposed leader rejects
   its pending reads newest first.  A random schedule of reads, echoes
   of any past instant (reordered, and at the same instant as a
   registration), acks, membership changes (a learner that answers, a
   voter removed while reads wait) and deposition must draw the same
   read outcomes, in the same order, from a fresh server as from the
   model. *)

type read_op =
  | R_advance of int  (** ms; 0 keeps the same instant *)
  | R_read
  | R_echo of int * int  (** peer, pick among past instants *)
  | R_ack of int  (** an append response covering the whole log *)
  | R_remove of int
  | R_add_learner
  | R_depose

let read_op_print = function
  | R_advance d -> Printf.sprintf "advance %d" d
  | R_read -> "read"
  | R_echo (p, k) -> Printf.sprintf "echo %d/%d" p k
  | R_ack p -> Printf.sprintf "ack %d" p
  | R_remove p -> Printf.sprintf "remove %d" p
  | R_add_learner -> "add learner 5"
  | R_depose -> "depose"

let read_op_gen =
  Q.Gen.(
    frequency
      [
        (3, map (fun d -> R_advance d) (int_range 0 3));
        (3, return R_read);
        (7, map2 (fun p k -> R_echo (p, k)) (int_range 1 5) (int_range 0 50));
        (1, map (fun p -> R_ack p) (int_range 1 5));
        (1, map (fun p -> R_remove p) (int_range 0 5));
        (1, return R_add_learner);
        (1, return R_depose);
      ])

type model_read = {
  m_seq : int;
  m_at : Des.Time.t;
  m_index : int;
  mutable m_conf : Netsim.Node_id.Set.t;
}

(* What a read's client is told: served (with its index) or rejected. *)
let read_outcomes acts =
  List.filter_map
    (function
      | Raft.Server.Serve_read { seq; read_index; _ } -> Some (seq, read_index)
      | Raft.Server.Reject_proposal { seq; _ } -> Some (seq, -1)
      | _ -> None)
    acts

let prop_reads_match_set_model =
  Q.Test.make ~count:300 ~name:"ReadIndex: served and rejected as the set rule"
    (Q.make
       ~print:(fun ops -> String.concat "; " (List.map read_op_print ops))
       Q.Gen.(list_size (int_range 1 80) read_op_gen))
    (fun ops ->
      let module S = Raft.Server in
      let nid = Netsim.Node_id.of_int in
      let s =
        S.create ~id:(nid 0)
          ~peers:(List.map nid [ 1; 2; 3; 4 ])
          ~config:(Raft.Config.static ())
          ~rng:(Stats.Rng.create ~seed:7L ())
          ()
      in
      let recv ~now from msg =
        S.handle s ~now (S.Message { from = nid from; msg })
      in
      ignore (S.start s : S.action list);
      ignore
        (S.handle s ~now:Des.Time.zero S.Election_timeout_fired
          : S.action list);
      List.iter
        (fun pre_vote ->
          let term = if pre_vote then S.term s + 1 else S.term s in
          List.iter
            (fun p ->
              ignore
                (recv ~now:Des.Time.zero p
                   (Raft.Rpc.Vote_response { term; granted = true; pre_vote })
                  : S.action list))
            [ 1; 2 ])
        [ true; false ];
      assert (Raft.Types.is_leader (S.role s));
      let now = ref Des.Time.zero and seq = ref 0 in
      let instants = ref [ Des.Time.zero ] in
      let pending = ref [] (* newest first *) and leader = ref true in
      let got = ref [] and want = ref [] in
      let record acts = got := List.rev_append (read_outcomes acts) !got in
      let expect o = want := o :: !want in
      List.iter
        (fun op ->
          match op with
          | R_advance d ->
              now := Des.Time.add !now (Des.Time.ms d);
              instants := !now :: !instants
          | R_read ->
              incr seq;
              let index = S.commit_index s in
              if !leader then
                pending :=
                  { m_seq = !seq; m_at = !now; m_index = index;
                    m_conf = Netsim.Node_id.Set.empty }
                  :: !pending
              else expect (!seq, -1);
              record
                (S.handle s ~now:!now (S.Read { client_id = 1; seq = !seq }))
          | R_echo (p, k) ->
              (* Any instant up to now: echoes overtake each other. *)
              let sent_at = List.nth !instants (k mod List.length !instants) in
              if !leader && !pending <> [] then begin
                let voters = S.voters s in
                if List.exists (Netsim.Node_id.equal (nid p)) voters then
                  List.iter
                    (fun r ->
                      if sent_at >= r.m_at then
                        r.m_conf <- Netsim.Node_id.Set.add (nid p) r.m_conf)
                    !pending;
                let quorum = (List.length voters / 2) + 1 in
                let self = if S.is_voter s (nid 0) then 1 else 0 in
                let ready, waiting =
                  List.partition
                    (fun r ->
                      self + Netsim.Node_id.Set.cardinal r.m_conf >= quorum
                      && S.commit_index s >= r.m_index)
                    !pending
                in
                pending := waiting;
                List.iter (fun r -> expect (r.m_seq, r.m_index)) ready
              end;
              record
                (recv ~now:!now p
                   (Raft.Rpc.Heartbeat_response
                      { term = S.term s; hb_id = 0; echo_sent_at = sent_at;
                        tuned_h = None; hr_gen = 0 }))
          | R_ack p ->
              record
                (recv ~now:!now p
                   (Raft.Rpc.Append_response
                      { term = S.term s; success = true;
                        match_index = Raft.Log.last_index (S.log s);
                        conflict_hint = 0; req_prev = 0; ap_gen = 0 }))
          | R_remove p ->
              record (fst (S.reconfigure s ~now:!now (Raft.Log.Remove (nid p))))
          | R_add_learner ->
              record
                (fst (S.reconfigure s ~now:!now (Raft.Log.Add_learner (nid 5))))
          | R_depose ->
              if !leader then begin
                List.iter (fun r -> expect (r.m_seq, -1)) !pending;
                pending := [];
                leader := false
              end;
              record
                (recv ~now:!now 1
                   (Raft.Rpc.Heartbeat_response
                      { term = S.term s + 1; hb_id = 0; echo_sent_at = !now;
                        tuned_h = None; hr_gen = 0 })))
        ops;
      List.rev !got = List.rev !want)

let tests =
  List.map to_alcotest
    [
      prop_queue_matches_model;
      prop_timer_rearm_matches_reschedule;
      prop_window_matches_batch;
      prop_window_keeps_newest;
      prop_window_matches_mod_indexing;
      prop_engine_orders_events;
      prop_loss_rate_bounds;
      prop_loss_rate_exact_on_sets;
      prop_loss_observe_insensitive_to_order;
      prop_required_heartbeats_minimal;
      prop_tuner_h_bounds;
      prop_tuner_et_bounds;
      prop_tuner_reset_restores_defaults;
      prop_summary_percentile_monotone;
      prop_summary_mean_within_range;
      prop_summary_sort_matches_stdlib;
      prop_codec_roundtrip;
      prop_client_encoder_matches_sprintf_key;
      prop_decoder_matches_reference;
      prop_store_matches_copying_model;
      prop_log_append_grows_monotonically;
      prop_log_compaction_preserves_suffix;
      prop_log_compaction_then_append_consistent;
      prop_store_snapshot_roundtrip;
      prop_ewma_bounded_by_extremes;
      prop_ewma_constant_input_converges;
      prop_partition_reachability_is_equivalence;
      prop_conditions_piecewise_lookup;
      prop_pipelined_replication_converges;
      prop_pool_recycle_never_aliases_inflight;
      prop_reads_match_set_model;
    ]
