(* Unit tests for the KV state machine, command codec, and workload. *)

module Command = Kvsm.Command
module Store = Kvsm.Store

let roundtrip cmd =
  match Command.of_payload (Command.to_payload cmd) with
  | Ok decoded ->
      Alcotest.(check bool)
        (Format.asprintf "roundtrip %a" Command.pp cmd)
        true (Command.equal cmd decoded)
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_codec_roundtrip () =
  List.iter roundtrip
    [
      Command.Put { key = "a"; value = "b" };
      Command.Put { key = ""; value = "" };
      Command.Put { key = "k:with:colons"; value = "v:1:2" };
      Command.Get "some-key";
      Command.Delete "x";
      Command.Cas { key = "k"; expect = Some "old"; value = "new" };
      Command.Cas { key = "k"; expect = None; value = "init" };
      Command.Put { key = String.make 1000 'K'; value = String.make 5000 'V' };
    ]

(* Every malformation with the error the format reports for it; a log
   entry carrying one applies as [Invalid] with the same text. *)
let malformed =
  [
    ("", "empty payload");
    ("Z", "unknown tag 'Z'");
    ("\n1:a", "unknown tag '\\n'");
    ("P", "missing length delimiter");
    ("P2", "missing length delimiter");
    ("D", "missing length delimiter");
    ("P2:ab", "missing length delimiter");
    ("N1:a", "missing length delimiter");
    ("C1:a1:b", "missing length delimiter");
    ("P:ab1:c", "malformed length");
    ("Px:ab1:c", "malformed length");
    ("P99999999999999999999:a", "malformed length");
    ("P9:ab", "length out of range");
    ("P-1:a1:b", "length out of range");
    ("P2:ab3:xy", "length out of range");
    ("P2:ab3:xyztrailing", "trailing bytes");
    ("G1:ab", "trailing bytes");
  ]

let test_codec_rejects_garbage () =
  List.iter
    (fun (payload, expected) ->
      let what = Printf.sprintf "%S" payload in
      (match Command.of_payload payload with
      | Error msg -> Alcotest.(check string) ("of_payload " ^ what) expected msg
      | Ok _ -> Alcotest.failf "accepted garbage: %s" what);
      (match Command.payload_key payload with
      | Error msg ->
          Alcotest.(check string) ("payload_key " ^ what) expected msg
      | Ok _ -> Alcotest.failf "payload_key accepted garbage: %s" what);
      Alcotest.(check bool) ("scan_put " ^ what) false
        (Command.scan_put (Command.put_span ()) payload);
      let entry =
        {
          Raft.Log.term = 1;
          index = 1;
          command = Raft.Log.Data { payload; client_id = 1; seq = 1 };
        }
      in
      match Store.apply_entry (Store.create ()) entry with
      | Some (Store.Invalid msg) ->
          Alcotest.(check string) ("apply_entry " ^ what) expected msg
      | _ -> Alcotest.failf "apply_entry accepted garbage: %s" what)
    malformed

(* A length near [max_int] must not wrap the range check around. *)
let test_codec_length_overflow () =
  match Command.of_payload (Printf.sprintf "P%d:a1:b" max_int) with
  | Error msg -> Alcotest.(check string) "rejected" "length out of range" msg
  | Ok _ -> Alcotest.fail "accepted an overflowing length"

(* The wire format, pinned byte for byte. *)
let test_codec_wire_format () =
  List.iter
    (fun (cmd, expected) ->
      Alcotest.(check string)
        (Format.asprintf "%a" Command.pp cmd)
        expected (Command.to_payload cmd))
    [
      (Command.Put { key = "k"; value = "" }, "P1:k0:");
      ( Command.Put { key = "c1-k10"; value = String.make 10 'v' },
        "P6:c1-k1010:vvvvvvvvvv" );
      (Command.Get "x", "G1:x");
      (Command.Delete "", "D0:");
      (Command.Cas { key = "k"; expect = Some "old"; value = "new" }, "C1:k3:old3:new");
      (Command.Cas { key = "k"; expect = None; value = "v" }, "N1:k1:v");
    ];
  let value = String.make 64 'v' in
  List.iter
    (fun (client_id, slot) ->
      Alcotest.(check string)
        (Printf.sprintf "client %d slot %d" client_id slot)
        (Command.to_payload
           (Command.Put { key = Printf.sprintf "c%d-k%d" client_id slot; value }))
        (Command.client_put_payload ~client_id ~slot ~value))
    [ (0, 0); (1, 9); (1, 10); (7, 1023); (-3, 42); (max_int, min_int); (min_int, max_int) ]

let test_store_put_get () =
  let s = Store.create () in
  (match Store.apply_command s (Command.Put { key = "k"; value = "v" }) with
  | Store.Written -> ()
  | _ -> Alcotest.fail "expected Written");
  Alcotest.(check (option string)) "stored" (Some "v") (Store.find s "k");
  match Store.apply_command s (Command.Get "k") with
  | Store.Value (Some "v") -> ()
  | _ -> Alcotest.fail "expected the stored value"

let test_store_delete () =
  let s = Store.create () in
  ignore (Store.apply_command s (Command.Put { key = "k"; value = "v" }));
  (match Store.apply_command s (Command.Delete "k") with
  | Store.Deleted true -> ()
  | _ -> Alcotest.fail "expected Deleted true");
  (match Store.apply_command s (Command.Delete "k") with
  | Store.Deleted false -> ()
  | _ -> Alcotest.fail "expected Deleted false");
  Alcotest.(check (option string)) "gone" None (Store.find s "k")

let test_store_cas () =
  let s = Store.create () in
  (* CAS on absent key with expect None creates it. *)
  (match
     Store.apply_command s (Command.Cas { key = "k"; expect = None; value = "1" })
   with
  | Store.Swapped true -> ()
  | _ -> Alcotest.fail "expected create");
  (* Wrong expectation fails and leaves state untouched. *)
  (match
     Store.apply_command s
       (Command.Cas { key = "k"; expect = Some "9"; value = "2" })
   with
  | Store.Swapped false -> ()
  | _ -> Alcotest.fail "expected failed swap");
  Alcotest.(check (option string)) "unchanged" (Some "1") (Store.find s "k");
  match
    Store.apply_command s
      (Command.Cas { key = "k"; expect = Some "1"; value = "2" })
  with
  | Store.Swapped true ->
      Alcotest.(check (option string)) "swapped" (Some "2") (Store.find s "k")
  | _ -> Alcotest.fail "expected successful swap"

let test_store_determinism () =
  let run () =
    let s = Store.create () in
    for i = 0 to 99 do
      ignore
        (Store.apply_command s
           (Command.Put
              { key = "k" ^ string_of_int (i mod 10); value = string_of_int i }))
    done;
    ignore (Store.apply_command s (Command.Delete "k3"));
    Store.state_digest s
  in
  Alcotest.(check string) "same history, same digest" (run ()) (run ())

let test_store_digest_sensitive () =
  let s1 = Store.create () and s2 = Store.create () in
  ignore (Store.apply_command s1 (Command.Put { key = "a"; value = "1" }));
  ignore (Store.apply_command s2 (Command.Put { key = "a"; value = "2" }));
  Alcotest.(check bool) "different values differ" false
    (Store.state_digest s1 = Store.state_digest s2)

let test_apply_entry () =
  let s = Store.create () in
  let noop = { Raft.Log.term = 1; index = 1; command = Raft.Log.Noop } in
  Alcotest.(check bool) "noop applies to nothing" true
    (Store.apply_entry s noop = None);
  let put =
    {
      Raft.Log.term = 1;
      index = 2;
      command =
        Raft.Log.Data
          {
            payload = Command.to_payload (Command.Put { key = "x"; value = "y" });
            client_id = 1;
            seq = 1;
          };
    }
  in
  (match Store.apply_entry s put with
  | Some Store.Written -> ()
  | _ -> Alcotest.fail "expected Written");
  let bad =
    {
      Raft.Log.term = 1;
      index = 3;
      command = Raft.Log.Data { payload = "garbage"; client_id = 1; seq = 2 };
    }
  in
  match Store.apply_entry s bad with
  | Some (Store.Invalid _) -> ()
  | _ -> Alcotest.fail "expected Invalid for garbage payload"

let data_entry ~index payload =
  {
    Raft.Log.term = 1;
    index;
    command = Raft.Log.Data { payload; client_id = 1; seq = index };
  }

let apply_payloads s payloads =
  List.iteri
    (fun i payload ->
      match Store.apply_entry s (data_entry ~index:(i + 1) payload) with
      | Some Store.Written -> ()
      | _ -> Alcotest.failf "expected %S to apply as Written" payload)
    payloads

(* The codec reads a length header through [int_of_string_opt] when it
   is not a plain digit run, so a sign, a leading zero, a base prefix or
   an underscore spells the same key as plain decimal does. *)
let test_store_put_header_spellings () =
  let fed payloads =
    let s = Store.create () in
    apply_payloads s payloads;
    s
  in
  let canonical = fed [ "P3:abc1:v" ] in
  List.iter
    (fun header ->
      let s = fed [ "P" ^ header ^ ":abc1:v" ] in
      Alcotest.(check (option string)) header (Some "v") (Store.find s "abc");
      Alcotest.(check string)
        (header ^ ": digest")
        (Store.state_digest canonical) (Store.state_digest s);
      Alcotest.(check string)
        (header ^ ": serialize") (Store.serialize canonical) (Store.serialize s);
      let s = fed [ "P" ^ header ^ ":abc1:v"; "P3:abc1:w" ] in
      Alcotest.(check (option string))
        (header ^ ": rebound by plain decimal")
        (Some "w") (Store.find s "abc");
      Alcotest.(check int) (header ^ ": one key") 1 (Store.size s))
    [ "+3"; "03"; "0x3"; "0_3" ]

(* Keys whose length headers take one, two and three digits live in one
   store, and each lookup follows one of a longer key. *)
let test_store_key_header_widths () =
  let s = Store.create () in
  let keys = [ String.make 120 'k'; "k"; String.make 12 'k'; "k:"; "x" ] in
  let value key = "v" ^ string_of_int (String.length key) ^ key in
  apply_payloads s
    (List.map
       (fun key -> Command.to_payload (Command.Put { key; value = value key }))
       keys);
  Alcotest.(check int) "all bound" (List.length keys) (Store.size s);
  let long = String.make 150 'k' in
  List.iter
    (fun key ->
      Alcotest.(check (option string)) "absent, longer" None (Store.find s long);
      Alcotest.(check (option string))
        (Printf.sprintf "%d-byte key" (String.length key))
        (Some (value key)) (Store.find s key))
    keys;
  let longest = List.hd keys in
  List.iter
    (fun key ->
      Alcotest.(check (option string))
        "longer first" (Some (value longest)) (Store.find s longest);
      Alcotest.(check (option string))
        (Printf.sprintf "absent %d-byte key" (String.length key))
        None (Store.find s key))
    [ "kk"; String.make 11 'k'; String.make 119 'k'; "" ];
  (match Store.apply_command s (Command.Delete "k") with
  | Store.Deleted true -> ()
  | _ -> Alcotest.fail "expected Deleted true");
  Alcotest.(check (option string)) "deleted" None (Store.find s "k");
  Alcotest.(check (option string))
    "neighbour kept" (Some (value "x")) (Store.find s "x")

(* Applies a fresh Put payload of [key] and records it in [weak] at
   [slot]; no reference to the payload outlives the call but the
   store's. *)
let[@inline never] apply_fresh s weak slot key value =
  let payload = Command.to_payload (Command.Put { key; value }) in
  Weak.set weak slot (Some payload);
  apply_payloads s [ payload ]

let test_store_retention () =
  let s = Store.create () in
  let weak = Weak.create 2 in
  apply_fresh s weak 0 "k" "v1";
  apply_fresh s weak 1 "k" "v2";
  Gc.full_major ();
  Alcotest.(check bool) "superseded payload released" false (Weak.check weak 0);
  Alcotest.(check bool) "bound payload held" true (Weak.check weak 1);
  Alcotest.(check (option string)) "rebound" (Some "v2") (Store.find s "k");
  (match Store.apply_command s (Command.Delete "k") with
  | Store.Deleted true -> ()
  | _ -> Alcotest.fail "expected Deleted true");
  Gc.full_major ();
  Alcotest.(check bool) "deleted payload released" false (Weak.check weak 1);
  Alcotest.(check int) "empty" 0 (Store.size s);
  (* "d68" and "d89" start at the last of the table's 16 slots and "d13"
     at its first, so "d89" wraps to slot 0 and "d13" lands in slot 1.
     Deleting "d68" shifts both back one slot, across the array's
     end. *)
  let weak = Weak.create 3 in
  List.iteri
    (fun slot key -> apply_fresh s weak slot key (key ^ "-v"))
    [ "d68"; "d89"; "d13" ];
  (match Store.apply_command s (Command.Delete "d68") with
  | Store.Deleted true -> ()
  | _ -> Alcotest.fail "expected Deleted true");
  Gc.full_major ();
  Alcotest.(check bool) "deleted key's payload released" false
    (Weak.check weak 0);
  Alcotest.(check bool) "shifted payloads held" true
    (Weak.check weak 1 && Weak.check weak 2);
  Alcotest.(check (option string)) "deleted" None (Store.find s "d68");
  Alcotest.(check (option string)) "shifted across the end" (Some "d89-v")
    (Store.find s "d89");
  Alcotest.(check (option string)) "shifted home" (Some "d13-v")
    (Store.find s "d13");
  Alcotest.(check int) "two left" 2 (Store.size s)

(* {2 Client (driven against a fake target)} *)

let test_client_open_loop_rate () =
  let engine = Des.Engine.create ~seed:3L () in
  let accepted = ref 0 in
  let target ~payload:_ ~client_id:_ ~seq:_ ~on_result =
    incr accepted;
    (* Commit instantly. *)
    on_result ~committed:true;
    `Accepted
  in
  let client =
    Kvsm.Client.create ~engine ~target ~client_id:1 ~rate:1000. ()
  in
  Kvsm.Client.start client;
  Des.Engine.run_for engine (Des.Time.sec 10);
  Kvsm.Client.stop client;
  let rate = float_of_int !accepted /. 10. in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f near 1000" rate)
    true
    (rate > 900. && rate < 1100.);
  Alcotest.(check int) "all completed" !accepted (Kvsm.Client.completed client)

let test_client_latency_measurement () =
  let engine = Des.Engine.create ~seed:4L () in
  let target ~payload:_ ~client_id:_ ~seq:_ ~on_result =
    (* Commit after 30ms of simulated time. *)
    ignore
      (Des.Engine.schedule_after engine (Des.Time.ms 30) (fun () ->
           on_result ~committed:true)
        : Des.Engine.handle);
    `Accepted
  in
  let client =
    Kvsm.Client.create ~engine ~target ~client_id:1 ~rate:100.
      ~client_rtt:(Des.Time.ms 10) ()
  in
  Kvsm.Client.start client;
  Des.Engine.run_for engine (Des.Time.sec 2);
  Kvsm.Client.stop client;
  let lats = Kvsm.Client.latencies_ms client in
  Alcotest.(check bool) "some completions" true (List.length lats > 50);
  List.iter
    (fun l ->
      if abs_float (l -. 40.) > 0.001 then
        Alcotest.failf "latency %.3f, expected 40ms" l)
    lats

let test_client_rejects_bad_rates () =
  let engine = Des.Engine.create ~seed:5L () in
  let target ~payload:_ ~client_id:_ ~seq:_ ~on_result:_ = `Accepted in
  List.iter
    (fun rate ->
      Alcotest.check_raises (Printf.sprintf "rate %g" rate)
        (Invalid_argument "Client.create: rate must be finite and positive")
        (fun () ->
          ignore
            (Kvsm.Client.create ~engine ~target ~client_id:1 ~rate ()
              : Kvsm.Client.t)))
    [ Float.nan; Float.infinity; 0.; -1. ]

let test_client_counts_redirects () =
  let engine = Des.Engine.create ~seed:5L () in
  let target ~payload:_ ~client_id:_ ~seq:_ ~on_result:_ = `Not_leader None in
  let client = Kvsm.Client.create ~engine ~target ~client_id:1 ~rate:100. () in
  Kvsm.Client.start client;
  Des.Engine.run_for engine (Des.Time.sec 1);
  Kvsm.Client.stop client;
  Alcotest.(check int) "no completions" 0 (Kvsm.Client.completed client);
  Alcotest.(check bool) "redirects counted" true
    (Kvsm.Client.redirected client > 50)

(* Records in [weak] the payload [seen] holds for one slot, and blanks
   [seen]: the client's cache then holds the only reference. *)
let[@inline never] keep_weakly weak seen slot =
  Weak.set weak 0 (Some seen.(slot));
  Array.fill seen 0 (Array.length seen) ""

let test_client_payload_per_key () =
  let engine = Des.Engine.create ~seed:6L () in
  let rounds = 2 * 1024 in
  let seen = Array.make rounds "" in
  let target ~payload ~client_id:_ ~seq ~on_result:_ =
    if seq < rounds then seen.(seq) <- payload;
    `Accepted
  in
  let client_id = 7 in
  let client = Kvsm.Client.create ~engine ~target ~client_id ~rate:1000. () in
  Kvsm.Client.start client;
  Des.Engine.run_for engine (Des.Time.sec 3);
  Alcotest.(check bool) "two rounds issued" true
    (Kvsm.Client.offered client > rounds);
  let value = String.make 64 'v' in
  for slot = 0 to 1023 do
    let first = seen.(slot) and second = seen.(slot + 1024) in
    if first != second then
      Alcotest.failf "slot %d: the second round built a new payload" slot;
    Alcotest.(check string)
      (Printf.sprintf "slot %d bytes" slot)
      (Command.client_put_payload ~client_id ~slot ~value)
      first
  done;
  let weak = Weak.create 1 in
  keep_weakly weak seen 5;
  Gc.full_major ();
  Alcotest.(check bool) "cached while running" true (Weak.check weak 0);
  Kvsm.Client.stop client;
  Gc.full_major ();
  Alcotest.(check bool) "stop releases the cache" false (Weak.check weak 0)

let test_workload_saturation_detection () =
  (* A fake service that can commit at most 500 req/s (2ms service). *)
  let engine = Des.Engine.create ~seed:6L () in
  let cpu = Netsim.Cpu.create engine ~cores:1. in
  let commit =
    Des.Engine.register_op engine (fun on_result () (_ : int) ->
        on_result ~committed:true)
  in
  let target ~payload:_ ~client_id:_ ~seq:_ ~on_result =
    Netsim.Cpu.execute cpu ~cost:(Des.Time.ms 2) commit on_result () 0;
    `Accepted
  in
  let reports =
    Kvsm.Workload.run_ramp ~engine ~target
      ~rates:[ 100.; 300.; 700.; 1000. ]
      ~hold:(Des.Time.sec 5) ()
  in
  Alcotest.(check int) "one report per level" 4 (List.length reports);
  let peak = Kvsm.Workload.peak_throughput reports in
  Alcotest.(check bool)
    (Printf.sprintf "peak %.0f capped near 500" peak)
    true
    (peak > 420. && peak < 560.);
  match Kvsm.Workload.saturation_rate reports with
  | Some rate ->
      Alcotest.(check bool)
        (Printf.sprintf "saturation at %.0f" rate)
        true (rate >= 500.)
  | None -> Alcotest.fail "expected saturation to be detected"

let tests =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "codec: length overflow" `Quick test_codec_length_overflow;
    Alcotest.test_case "codec: wire format" `Quick test_codec_wire_format;
    Alcotest.test_case "store: put/get" `Quick test_store_put_get;
    Alcotest.test_case "store: delete" `Quick test_store_delete;
    Alcotest.test_case "store: cas" `Quick test_store_cas;
    Alcotest.test_case "store: determinism" `Quick test_store_determinism;
    Alcotest.test_case "store: digest sensitivity" `Quick
      test_store_digest_sensitive;
    Alcotest.test_case "store: apply_entry" `Quick test_apply_entry;
    Alcotest.test_case "client: open-loop rate" `Quick
      test_client_open_loop_rate;
    Alcotest.test_case "client: latency measurement" `Quick
      test_client_latency_measurement;
    Alcotest.test_case "client: counts redirects" `Quick
      test_client_counts_redirects;
    Alcotest.test_case "workload: saturation detection" `Quick
      test_workload_saturation_detection;
    Alcotest.test_case "store: put header spellings" `Quick
      test_store_put_header_spellings;
    Alcotest.test_case "store: key header widths" `Quick
      test_store_key_header_widths;
    Alcotest.test_case "store: retention" `Quick test_store_retention;
    Alcotest.test_case "client: rejects bad rates" `Quick
      test_client_rejects_bad_rates;
    Alcotest.test_case "client: one payload per key slot" `Quick
      test_client_payload_per_key;
  ]
