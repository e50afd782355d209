(* Unit tests for the replicated log. *)

module Log = Raft.Log

let entry term index = { Log.term; index; command = Log.Noop }

let data term index payload =
  { Log.term; index; command = Log.Data { payload; client_id = 0; seq = index } }

let test_empty_log () =
  let l = Log.create () in
  Alcotest.(check int) "last index" 0 (Log.last_index l);
  Alcotest.(check int) "last term" 0 (Log.last_term l);
  Alcotest.(check (option int)) "sentinel term" (Some 0) (Log.term_at l 0);
  Alcotest.(check (option int)) "beyond end" None (Log.term_at l 1)

let test_append_new () =
  let l = Log.create () in
  let e1 = Log.append_new l ~term:1 Log.Noop in
  let e2 = Log.append_new l ~term:1 (Log.Data { payload = "x"; client_id = 1; seq = 1 }) in
  Alcotest.(check int) "first index" 1 e1.Log.index;
  Alcotest.(check int) "second index" 2 e2.Log.index;
  Alcotest.(check int) "last term" 1 (Log.last_term l);
  Alcotest.(check (option int)) "term lookup" (Some 1) (Log.term_at l 2)

let test_try_append_success () =
  let l = Log.create () in
  (match
     Log.try_append l ~prev_index:0 ~prev_term:0
       ~entries:[| entry 1 1; entry 1 2 |]
   with
  | `Ok covered -> Alcotest.(check int) "covered" 2 covered
  | `Conflict _ -> Alcotest.fail "append at origin must succeed");
  Alcotest.(check int) "length" 2 (Log.last_index l)

let test_try_append_missing_prev () =
  let l = Log.create () in
  match Log.try_append l ~prev_index:5 ~prev_term:1 ~entries:[| entry 1 6 |] with
  | `Conflict hint -> Alcotest.(check int) "hint = log end + 1" 1 hint
  | `Ok _ -> Alcotest.fail "must conflict when predecessor is missing"

let test_try_append_term_mismatch () =
  let l = Log.create () in
  ignore (Log.append_new l ~term:1 Log.Noop);
  ignore (Log.append_new l ~term:1 Log.Noop);
  match Log.try_append l ~prev_index:2 ~prev_term:9 ~entries:[||] with
  | `Conflict hint -> Alcotest.(check int) "hint points at conflict" 2 hint
  | `Ok _ -> Alcotest.fail "must conflict on term mismatch"

let test_try_append_truncates_conflicts () =
  let l = Log.create () in
  ignore (Log.append_new l ~term:1 Log.Noop);
  ignore (Log.append_new l ~term:1 (Log.Data { payload = "old"; client_id = 0; seq = 0 }));
  ignore (Log.append_new l ~term:1 (Log.Data { payload = "old2"; client_id = 0; seq = 0 }));
  (* New leader at term 2 overwrites index 2 onward. *)
  (match
     Log.try_append l ~prev_index:1 ~prev_term:1
       ~entries:[| data 2 2 "new" |]
   with
  | `Ok covered -> Alcotest.(check int) "covered" 2 covered
  | `Conflict _ -> Alcotest.fail "expected success");
  Alcotest.(check int) "conflicting suffix dropped" 2 (Log.last_index l);
  match Log.entry_at l 2 with
  | Some { Log.term = 2; command = Log.Data { payload = "new"; _ }; _ } -> ()
  | _ -> Alcotest.fail "index 2 must hold the new entry"

let test_try_append_idempotent () =
  let l = Log.create () in
  let es = [| entry 1 1; entry 1 2; entry 1 3 |] in
  ignore (Log.try_append l ~prev_index:0 ~prev_term:0 ~entries:es);
  (* A duplicate append (retransmission) must not truncate or duplicate. *)
  (match Log.try_append l ~prev_index:0 ~prev_term:0 ~entries:es with
  | `Ok covered -> Alcotest.(check int) "covered" 3 covered
  | `Conflict _ -> Alcotest.fail "duplicate append must succeed");
  Alcotest.(check int) "no growth" 3 (Log.last_index l)

let test_try_append_partial_overlap () =
  let l = Log.create () in
  ignore
    (Log.try_append l ~prev_index:0 ~prev_term:0
       ~entries:[| entry 1 1; entry 1 2 |]);
  (match
     Log.try_append l ~prev_index:1 ~prev_term:1
       ~entries:[| entry 1 2; entry 1 3; entry 1 4 |]
   with
  | `Ok covered -> Alcotest.(check int) "covered" 4 covered
  | `Conflict _ -> Alcotest.fail "overlap must succeed");
  Alcotest.(check int) "extended" 4 (Log.last_index l)

let test_heartbeat_append_empty () =
  let l = Log.create () in
  ignore (Log.append_new l ~term:1 Log.Noop);
  match Log.try_append l ~prev_index:1 ~prev_term:1 ~entries:[||] with
  | `Ok covered -> Alcotest.(check int) "covered = prev" 1 covered
  | `Conflict _ -> Alcotest.fail "empty append with matching prev succeeds"

let test_slice () =
  let l = Log.create () in
  for _ = 1 to 5 do
    ignore (Log.append_new l ~term:1 Log.Noop)
  done;
  Alcotest.(check int) "middle slice" 2
    (Array.length (Log.slice l ~from:2 ~max:2));
  Alcotest.(check int) "tail slice clipped" 2
    (Array.length (Log.slice l ~from:4 ~max:10));
  Alcotest.(check int) "empty beyond end" 0
    (Array.length (Log.slice l ~from:6 ~max:10));
  let indices =
    Array.to_list
      (Array.map (fun (e : Log.entry) -> e.Log.index) (Log.slice l ~from:2 ~max:3))
  in
  Alcotest.(check (list int)) "contiguous" [ 2; 3; 4 ] indices

(* [slice] re-serves the window it last returned; anything that rewrites
   or drops a stored slot must make the next slice copy afresh. *)
let terms w = Array.to_list (Array.map (fun (e : Log.entry) -> e.Log.term) w)

let log_of_terms ts =
  let l = Log.create () in
  List.iter (fun term -> ignore (Log.append_new l ~term Log.Noop : Log.entry)) ts;
  l

let test_slice_reserves_window () =
  let l = log_of_terms [ 1; 1; 1; 1; 1 ] in
  let w = Log.slice l ~from:2 ~max:3 in
  Alcotest.(check bool) "same window, same array" true
    (w == Log.slice l ~from:2 ~max:3);
  ignore (Log.append_new l ~term:1 Log.Noop : Log.entry);
  Alcotest.(check bool) "an append leaves a full window alone" true
    (w == Log.slice l ~from:2 ~max:3);
  let tail = Log.slice l ~from:5 ~max:10 in
  ignore (Log.append_new l ~term:1 Log.Noop : Log.entry);
  let grown = Log.slice l ~from:5 ~max:10 in
  Alcotest.(check (list int)) "a tail window grows with the log" [ 5; 6; 7 ]
    (Array.to_list (Array.map (fun (e : Log.entry) -> e.Log.index) grown));
  Alcotest.(check int) "the old tail window is untouched" 2 (Array.length tail)

let test_slice_window_after_truncate () =
  let l = log_of_terms [ 1; 1; 1; 1; 1 ] in
  ignore (Log.slice l ~from:3 ~max:2 : Log.entry array);
  (match
     Log.try_append l ~prev_index:2 ~prev_term:1
       ~entries:[| entry 2 3; entry 2 4 |]
   with
  | `Ok covered -> Alcotest.(check int) "covered" 4 covered
  | `Conflict _ -> Alcotest.fail "append after a matching prefix succeeds");
  Alcotest.(check (list int)) "conflicting try_append: the new entries"
    [ 2; 2 ]
    (terms (Log.slice l ~from:3 ~max:2))

(* Compaction rewrites no entry it keeps, but the window it drops may
   hold compacted ones: it must not outlive them. *)
let test_slice_window_after_compact () =
  let l = log_of_terms [ 1; 1; 1; 1; 1 ] in
  let w = Log.slice l ~from:3 ~max:2 in
  Log.compact l ~upto:2;
  let after = Log.slice l ~from:3 ~max:2 in
  Alcotest.(check bool) "compact drops the window" false (w == after);
  Alcotest.(check (list int)) "compact keeps the entries" [ 1; 1 ] (terms after)

let test_slice_window_after_install () =
  let l = log_of_terms [ 1; 1; 1; 1; 1; 1 ] in
  ignore (Log.slice l ~from:5 ~max:2 : Log.entry array);
  Log.install_snapshot l ~index:4 ~term:2;
  ignore (Log.append_new l ~term:3 Log.Noop : Log.entry);
  ignore (Log.append_new l ~term:3 Log.Noop : Log.entry);
  Alcotest.(check (list int)) "install_snapshot: the new entries" [ 3; 3 ]
    (terms (Log.slice l ~from:5 ~max:2))

let test_up_to_date () =
  let l = Log.create () in
  ignore (Log.append_new l ~term:2 Log.Noop);
  ignore (Log.append_new l ~term:3 Log.Noop);
  (* mine: last (2, term 3) *)
  Alcotest.(check bool) "higher term wins" true
    (Log.up_to_date l ~last_index:1 ~last_term:4);
  Alcotest.(check bool) "same term longer wins" true
    (Log.up_to_date l ~last_index:3 ~last_term:3);
  Alcotest.(check bool) "same term same length ok" true
    (Log.up_to_date l ~last_index:2 ~last_term:3);
  Alcotest.(check bool) "shorter same term loses" false
    (Log.up_to_date l ~last_index:1 ~last_term:3);
  Alcotest.(check bool) "lower term loses" false
    (Log.up_to_date l ~last_index:10 ~last_term:2)

(* {2 Appends straddling the snapshot boundary}

   After compaction the entries at or below [snapshot_index] exist only
   as the boundary pair, yet a slow leader may still send appends whose
   predecessor — or a whole prefix of whose batch — lies below it.
   [try_append] must treat the compacted prefix as matching (it was
   committed before it was compacted) and splice in only the live
   suffix. *)

module Q = QCheck

let to_alcotest = QCheck_alcotest.to_alcotest

(* A log holding [total] entries (terms non-decreasing, bumped at
   [term_switch]) compacted at [boundary]. *)
let build ~total ~term_switch ~boundary =
  let l = Log.create () in
  for i = 1 to total do
    ignore (Log.append_new l ~term:(if i < term_switch then 1 else 2) Log.Noop)
  done;
  Log.compact l ~upto:boundary;
  l

let gen_straddle =
  Q.make
    ~print:(fun (total, term_switch, boundary, prev) ->
      Printf.sprintf "total=%d term_switch=%d boundary=%d prev=%d" total
        term_switch boundary prev)
    Q.Gen.(
      int_range 2 40 >>= fun total ->
      int_range 1 total >>= fun term_switch ->
      int_range 1 total >>= fun boundary ->
      int_range 0 boundary >>= fun prev ->
      return (total, term_switch, boundary, prev))

let term_of ~term_switch i = if i < term_switch then 1 else 2

let prop_append_below_boundary_matches =
  Q.Test.make ~count:500
    ~name:"try_append: predecessor below the boundary is matching"
    gen_straddle
    (fun (total, term_switch, boundary, prev) ->
      let l = build ~total ~term_switch ~boundary in
      (* Replay the true suffix starting below the boundary, exactly as
         a leader that has not yet learned of our compaction would. *)
      let entries =
        Array.init (total - prev) (fun k ->
            let i = prev + 1 + k in
            { Log.term = term_of ~term_switch i; index = i; command = Log.Noop })
      in
      match
        Log.try_append l ~prev_index:prev
          ~prev_term:(term_of ~term_switch prev) ~entries
      with
      | `Ok covered ->
          covered = total
          && Log.last_index l = total
          && Log.snapshot_index l = boundary
          && Log.first_available l = boundary + 1
      | `Conflict _ -> false)

let prop_append_conflict_truncates_at_boundary =
  Q.Test.make ~count:500
    ~name:"try_append: conflicting suffix truncates, never below boundary"
    gen_straddle
    (fun (total, term_switch, boundary, prev) ->
      let l = build ~total ~term_switch ~boundary in
      (* A newer leader (term 3) rewrites everything after [prev]; the
         entries at or below the boundary are untouchable, and the tail
         above [prev] must be replaced wholesale. *)
      let entries =
        Array.init (total + 1 - prev) (fun k ->
            { Log.term = 3; index = prev + 1 + k; command = Log.Noop })
      in
      match
        Log.try_append l ~prev_index:prev
          ~prev_term:(term_of ~term_switch prev) ~entries
      with
      | `Ok covered ->
          covered = total + 1
          && Log.last_index l = total + 1
          && Log.snapshot_index l = boundary
          && (* every surviving live entry above the boundary now
                carries the new term *)
          List.for_all
            (fun i ->
              match Log.term_at l i with Some 3 -> true | _ -> i <= boundary)
            (List.init (total + 1) (fun i -> i + 1))
      | `Conflict _ -> false)

let prop_append_wholly_compacted_is_noop =
  Q.Test.make ~count:500
    ~name:"try_append: batch wholly below the boundary leaves the log alone"
    gen_straddle
    (fun (total, term_switch, boundary, prev) ->
      let l = build ~total ~term_switch ~boundary in
      let before_mut = Log.mutations l in
      (* Entries covering only the compacted range: a stale
         retransmission.  It must succeed (it matched once) without
         touching the live tail. *)
      let entries =
        Array.init (boundary - prev) (fun k ->
            let i = prev + 1 + k in
            { Log.term = term_of ~term_switch i; index = i; command = Log.Noop })
      in
      match
        Log.try_append l ~prev_index:prev
          ~prev_term:(term_of ~term_switch prev) ~entries
      with
      | `Ok covered ->
          covered >= boundary
          && Log.last_index l = total
          && Log.mutations l = before_mut
      | `Conflict _ -> false)

(* {2 Config entry index} *)

let config term index change = { Log.term; index; command = Log.Config change }

(* The config indices by a full scan of the stored entries. *)
let scan_configs l =
  List.filter
    (fun i ->
      match Log.entry_at l i with
      | Some { Log.command = Log.Config _; _ } -> true
      | Some _ | None -> false)
    (List.init (Log.length l) (fun k -> Log.first_available l + k))

let check_configs what expected l =
  Alcotest.(check (list int)) what expected (Log.config_indices l);
  Alcotest.(check (list int)) (what ^ " (scan agrees)") (scan_configs l)
    (Log.config_indices l)

let learner = Log.Add_learner (Netsim.Node_id.of_int 5)
let promote = Log.Promote (Netsim.Node_id.of_int 5)

let test_config_indices_truncate () =
  let l = Log.create () in
  check_configs "empty" [] l;
  (match
     Log.try_append l ~prev_index:0 ~prev_term:0
       ~entries:
         [| entry 1 1; config 1 2 learner; data 1 3 "x"; config 1 4 promote;
            entry 1 5 |]
   with
  | `Ok _ -> ()
  | `Conflict _ -> Alcotest.fail "append at origin must succeed");
  check_configs "appended" [ 2; 4 ] l;
  (* A new leader's suffix from index 4 retracts the promote. *)
  (match
     Log.try_append l ~prev_index:3 ~prev_term:1
       ~entries:[| entry 2 4; entry 2 5 |]
   with
  | `Ok _ -> ()
  | `Conflict _ -> Alcotest.fail "append after index 3 must succeed");
  check_configs "truncated past the promote" [ 2 ] l;
  ignore (Log.append_new l ~term:2 (Log.Config promote) : Log.entry);
  check_configs "a leader append" [ 2; 6 ] l

let test_config_indices_compact_install () =
  let l = Log.create () in
  ignore (Log.append_new l ~term:1 Log.Noop : Log.entry);
  ignore (Log.append_new l ~term:1 (Log.Config learner) : Log.entry);
  ignore (Log.append_new l ~term:1 Log.Noop : Log.entry);
  ignore (Log.append_new l ~term:1 (Log.Config promote) : Log.entry);
  Log.compact l ~upto:1;
  check_configs "compaction below every config" [ 2; 4 ] l;
  Log.compact l ~upto:3;
  check_configs "compaction past the first" [ 4 ] l;
  Log.install_snapshot l ~index:10 ~term:2;
  check_configs "snapshot install clears" [] l;
  ignore (Log.append_new l ~term:2 (Log.Config learner) : Log.entry);
  check_configs "append after install" [ 11 ] l

(* {2 Paged storage against a list model} *)

(* The log as a plain list: the boundary and the stored entries,
   ascending. *)
type model = { si : int; st : int; entries : Log.entry list }

let model_last m = m.si + List.length m.entries

let model_term m i =
  if i = m.si then Some m.st
  else if i < m.si || i > model_last m then None
  else Some (List.nth m.entries (i - m.si - 1)).Log.term

(* A batch of contiguous entries: the ones at or below the boundary and
   those matching a stored term are skipped, and the first mismatch
   replaces the stored suffix from its index with the rest of the
   batch. *)
let model_try_append m ~prev_index ~prev_term ~entries =
  let prefix =
    if prev_index < m.si then Some prev_term else model_term m prev_index
  in
  match prefix with
  | None -> (m, `Conflict (model_last m + 1))
  | Some term when term <> prev_term -> (m, `Conflict prev_index)
  | Some _ ->
      let stored = Array.of_list m.entries in
      let differs (e : Log.entry) =
        e.index > m.si
        && (e.index > model_last m
           || stored.(e.index - m.si - 1).term <> e.term)
      in
      let rec suffix = function
        | [] -> m
        | (e : Log.entry) :: rest when differs e ->
            {
              m with
              entries =
                List.filter (fun (s : Log.entry) -> s.index < e.index) m.entries
                @ (e :: rest);
            }
        | _ :: rest -> suffix rest
      in
      let n = Array.length entries in
      let covered = if n = 0 then prev_index else entries.(n - 1).Log.index in
      (suffix (Array.to_list entries), `Ok (Int.max covered m.si))

let model_slice m ~from ~max =
  List.filter
    (fun (e : Log.entry) -> e.index >= from && e.index < from + max)
    m.entries

let payload_entry ~term ~index =
  let payload = Printf.sprintf "%d@%d" index term in
  { Log.term; index; command = Log.Data { payload; client_id = 0; seq = index } }

type op =
  | Append of { n : int; term : int }
  | Replicate of {
      back : int;
      flip : bool;
      keep : int;
      fresh : int;
      term : int;
    }
      (** [try_append] after [last - back]: [keep] of our own entries,
          then [fresh] new ones in [term]; [flip] mismatches the
          predecessor's term *)
  | Compact of { back : int }
  | Compact_to of { page : int; delta : int }
      (** to [page * page_size + delta], or the last index if lower *)
  | Install of { page : int; delta : int; term : int }
      (** at [page * page_size + delta] *)
  | Slice of { page : int; delta : int; max : int }
      (** from [page * page_size + delta], across page boundaries *)

let show_op = function
  | Append { n; term } -> Printf.sprintf "append %d@%d" n term
  | Replicate { back; flip; keep; fresh; term } ->
      Printf.sprintf "replicate back=%d flip=%b keep=%d fresh=%d@%d" back flip
        keep fresh term
  | Compact { back } -> Printf.sprintf "compact back=%d" back
  | Compact_to { page; delta } ->
      Printf.sprintf "compact to page=%d%+d" page delta
  | Install { page; delta; term } ->
      Printf.sprintf "install page=%d%+d@%d" page delta term
  | Slice { page; delta; max } ->
      Printf.sprintf "slice page=%d%+d max=%d" page delta max

(* Sizes around one page, so logs span several pages and every
   operation meets a page boundary. *)
let gen_op =
  let p = Log.page_size in
  Q.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun n term -> Append { n; term })
            (int_range 0 (p + (p / 2)))
            (int_range 1 4) );
        ( 3,
          map2
            (fun (back, flip) (keep, fresh, term) ->
              Replicate { back; flip; keep; fresh; term })
            (pair (int_range 0 (p + 200))
               (frequency [ (4, return false); (1, return true) ]))
            (triple (int_range 0 40) (int_range 0 (p + 100)) (int_range 1 6))
        );
        (1, map (fun back -> Compact { back }) (int_range 0 (2 * p)));
        ( 1,
          map2
            (fun page delta -> Compact_to { page; delta })
            (int_range 0 4) (int_range (-2) 2) );
        ( 1,
          map3
            (fun page delta term -> Install { page; delta; term })
            (int_range 0 5) (int_range (-2) 2) (int_range 1 6) );
        ( 3,
          map3
            (fun page delta max -> Slice { page; delta; max })
            (int_range 0 4) (int_range (-3) 3)
            (int_range 0 ((2 * p) + 10)) );
      ])

(* Every observer of [l] agrees with [m]. *)
let agrees l m =
  let stored = Array.of_list m.entries in
  let last = model_last m in
  let ok =
    ref
      (Log.last_index l = last
      && Log.snapshot_index l = m.si
      && Log.snapshot_term l = m.st
      && Log.length l = Array.length stored
      && Option.equal Int.equal (Some (Log.last_term l)) (model_term m last))
  in
  for i = Int.max 0 (m.si - 2) to last + 2 do
    let want =
      if i > m.si && i <= last then Some stored.(i - m.si - 1) else None
    in
    ok :=
      !ok
      && Option.equal Log.equal_entry (Log.entry_at l i) want
      && Option.equal Int.equal (Log.term_at l i)
           (if i = m.si then Some m.st
            else Option.map (fun (e : Log.entry) -> e.term) want)
  done;
  !ok

(* [Log.compact] on both sides. *)
let compact l m ~upto =
  Log.compact l ~upto;
  if upto <= m.si then m
  else
    {
      si = upto;
      st = Option.get (model_term m upto);
      entries = List.filter (fun (e : Log.entry) -> e.index > upto) m.entries;
    }

(* Applies [op] to [l] and to [m]: whether their results agree, and the
   model after it. *)
let step l m = function
  | Append { n; term } ->
      let appended =
        List.init n (fun _ ->
            let index = Log.last_index l + 1 in
            Log.append_new l ~term (payload_entry ~term ~index).command)
      in
      (true, { m with entries = m.entries @ appended })
  | Replicate { back; flip; keep; fresh; term } ->
      let prev_index = Int.max 0 (model_last m - back) in
      let prev_term =
        let t = Option.value ~default:0 (model_term m prev_index) in
        if flip then t + 1 else t
      in
      let stored = Array.of_list m.entries in
      let entries =
        Array.init (keep + fresh) (fun k ->
            let index = prev_index + 1 + k in
            if k < keep && index > m.si && index <= model_last m then
              stored.(index - m.si - 1)
            else payload_entry ~term ~index)
      in
      let m, want = model_try_append m ~prev_index ~prev_term ~entries in
      (Log.try_append l ~prev_index ~prev_term ~entries = want, m)
  | Compact { back } -> (true, compact l m ~upto:(model_last m - back))
  | Compact_to { page; delta } ->
      let upto = Int.min (model_last m) ((page * Log.page_size) + delta) in
      (true, compact l m ~upto)
  | Install { page; delta; term } ->
      let index = Int.max 0 ((page * Log.page_size) + delta) in
      Log.install_snapshot l ~index ~term;
      (true, { si = index; st = term; entries = [] })
  | Slice { page; delta; max } ->
      let from = Int.max 0 ((page * Log.page_size) + delta) in
      let want = model_slice m ~from:(Int.max from (m.si + 1)) ~max in
      let got = Array.to_list (Log.slice l ~from ~max) in
      (List.equal Log.equal_entry got want, m)

let prop_paged_log_matches_model =
  Q.Test.make ~count:60 ~name:"paged log: agrees with a list model"
    (Q.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       Q.Gen.(list_size (int_range 1 25) gen_op))
    (fun ops ->
      let l = Log.create () in
      let rec run m = function
        | [] -> true
        | op :: rest ->
            let ok, m = step l m op in
            ok && agrees l m && run m rest
      in
      run { si = 0; st = 0; entries = [] } ops)

(* {2 Retention: a dropped entry's payload is collected} *)

(* A log of [n] term-1 entries, each with a fresh payload that [weak]
   records at its index; nothing but the log keeps a payload alive. *)
let[@inline never] weak_log n =
  let l = Log.create () and weak = Weak.create (n + 1) in
  for i = 1 to n do
    let payload = Printf.sprintf "payload-%d" i in
    Weak.set weak i (Some payload);
    ignore
      (Log.append_new l ~term:1 (Log.Data { payload; client_id = 0; seq = i })
        : Log.entry)
  done;
  (* The last window is memoized; every drop must reset it. *)
  ignore (Log.slice l ~from:(n / 2) ~max:64 : Log.entry array);
  (l, weak)

let check_collected weak ~collected ~held =
  Gc.full_major ();
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "index %d collected" i) false
        (Weak.check weak i))
    collected;
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "index %d held" i) true
        (Weak.check weak i))
    held

let test_truncated_payloads_collected () =
  let p = Log.page_size in
  let l, weak = weak_log (3 * p) in
  (* A new leader's entry at [p + p/2] truncates the rest: the tail of
     that page is blanked and the third page freed. *)
  let at = p + (p / 2) in
  (match
     Log.try_append l ~prev_index:(at - 1) ~prev_term:1
       ~entries:[| { Log.term = 2; index = at; command = Log.Noop } |]
   with
  | `Ok _ -> ()
  | `Conflict _ -> Alcotest.fail "append after a matching entry must succeed");
  Alcotest.(check int) "last index" at (Log.last_index l);
  check_collected weak
    ~collected:[ at; at + 1; (2 * p) - 1; 2 * p; (2 * p) + 1; 3 * p ]
    ~held:[ 1; p; at - 1 ];
  ignore (Sys.opaque_identity l : Log.t)

let test_compacted_payloads_collected () =
  let p = Log.page_size in
  let l, weak = weak_log (3 * p) in
  (* The first page goes whole; the compacted head of the second is
     blanked. *)
  Log.compact l ~upto:(p + 76);
  check_collected weak
    ~collected:[ 1; p; p + 1; p + 76 ]
    ~held:[ p + 77; 2 * p; 3 * p ];
  Log.install_snapshot l ~index:(3 * p) ~term:1;
  check_collected weak ~collected:[ p + 77; 2 * p; 3 * p ] ~held:[];
  ignore (Sys.opaque_identity l : Log.t)

let tests =
  [
    Alcotest.test_case "empty log" `Quick test_empty_log;
    Alcotest.test_case "append_new" `Quick test_append_new;
    Alcotest.test_case "try_append: success" `Quick test_try_append_success;
    Alcotest.test_case "try_append: missing prev" `Quick
      test_try_append_missing_prev;
    Alcotest.test_case "try_append: term mismatch" `Quick
      test_try_append_term_mismatch;
    Alcotest.test_case "try_append: truncates conflicts" `Quick
      test_try_append_truncates_conflicts;
    Alcotest.test_case "try_append: idempotent" `Quick
      test_try_append_idempotent;
    Alcotest.test_case "try_append: partial overlap" `Quick
      test_try_append_partial_overlap;
    Alcotest.test_case "try_append: heartbeat (empty)" `Quick
      test_heartbeat_append_empty;
    Alcotest.test_case "slice" `Quick test_slice;
    Alcotest.test_case "up_to_date voting rule" `Quick test_up_to_date;
    Alcotest.test_case "config indices: append and truncate" `Quick
      test_config_indices_truncate;
    Alcotest.test_case "config indices: compact and install" `Quick
      test_config_indices_compact_install;
    to_alcotest prop_append_below_boundary_matches;
    to_alcotest prop_append_conflict_truncates_at_boundary;
    to_alcotest prop_append_wholly_compacted_is_noop;
    Alcotest.test_case "slice: an unchanged window is served again" `Quick
      test_slice_reserves_window;
    Alcotest.test_case "slice: truncation drops the window" `Quick
      test_slice_window_after_truncate;
    Alcotest.test_case "slice: compaction drops the window" `Quick
      test_slice_window_after_compact;
    Alcotest.test_case "slice: a snapshot install drops the window" `Quick
      test_slice_window_after_install;
    to_alcotest prop_paged_log_matches_model;
    Alcotest.test_case "retention: a truncated entry's payload is collected"
      `Quick test_truncated_payloads_collected;
    Alcotest.test_case "retention: a compacted entry's payload is collected"
      `Quick test_compacted_payloads_collected;
  ]
