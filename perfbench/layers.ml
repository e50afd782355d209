(* Host-time attribution for the traced pass.

   Everything here is driven from the benchmark's own files: spans
   around the calls it makes into each layer, wrappers around the
   closures it hands to clients, and one engine post hook that stamps
   every DES event and charges it to a layer by which public counter
   moved.  Nothing inside lib/ reads a clock.  When tracing is off every
   entry point is a direct call, so the timed pass runs the same code
   the scenarios run.

   Known limit: the harness's 1 ms poll loops (await_leader,
   fail_and_measure) run bench-invisible code between engine slices;
   that time is charged to the next event. *)

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

type acc = { mutable count : int; mutable ns : int; mutable words : int }

let acc () = { count = 0; ns = 0; words = 0 }

let reset a =
  a.count <- 0;
  a.ns <- 0;
  a.words <- 0

let enabled = ref false

(* Event classes the post hook charges.  Priority: an event that changed
   a role or started an election, then a fabric delivery, then a bench
   client call, else a timer.  Tuner decisions are not a class: servers
   report them only when instrumented, and the instrumentation's own
   cost (each probe formatted into the trace digest) would be what got
   measured. *)
let timer = acc ()
let deliver = acc ()
let arrival = acc ()
let election = acc ()
let classes = [ timer; deliver; arrival; election ]

(* Bench-side calls into a layer, by name. *)
let calls : (string, acc) Hashtbl.t = Hashtbl.create 16

let call name =
  match Hashtbl.find_opt calls name with
  | Some a -> a
  | None ->
      let a = acc () in
      Hashtbl.add calls name a;
      a

(* Per-event flags, set during an event and consumed by the hook. *)
let client_call = ref false
let election_flag = ref false

let note_probe (p : Raft.Probe.t) =
  if !enabled then
    match p with
    | Raft.Probe.Election_started _ | Raft.Probe.Role_change _ ->
        election_flag := true
    | Raft.Probe.Timeout_expired _ | Raft.Probe.Pre_vote_aborted _
    | Raft.Probe.Tuner_reset _ | Raft.Probe.Tuner_decision _
    | Raft.Probe.Node_paused _ | Raft.Probe.Node_resumed _
    | Raft.Probe.Config_change _ | Raft.Probe.Transfer_started _
    | Raft.Probe.Transfer_aborted _ ->
        ()

(* GC time, from the runtime's own event ring.  Phases nest, so only
   the outermost begin/end pair of each pause is summed. *)
type gc = {
  mutable depth : int;
  mutable since : int64;
  mutable pause_ns : int64;
  mutable phase_ns : int64;  (** [pause_ns] at the end of the measured phase *)
  mutable lost : int;
}

let gc = { depth = 0; since = 0L; pause_ns = 0L; phase_ns = 0L; lost = 0 }

let gc_callbacks =
  let ts = Runtime_events.Timestamp.to_int64 in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t _ ->
      if gc.depth = 0 then gc.since <- ts t;
      gc.depth <- gc.depth + 1)
    ~runtime_end:(fun _ t _ ->
      if gc.depth > 0 then begin
        gc.depth <- gc.depth - 1;
        if gc.depth = 0 then
          gc.pause_ns <- Int64.add gc.pause_ns (Int64.sub (ts t) gc.since)
      end)
    ~lost_events:(fun _ n -> gc.lost <- gc.lost + n)
    ()

let gc_cursor =
  lazy
    (Runtime_events.start ();
     Runtime_events.create_cursor None)

let poll_gc () =
  if !enabled then
    ignore (Runtime_events.read_poll (Lazy.force gc_cursor) gc_callbacks None : int)

(* Chrome trace of the bench's spans; recorded for one traced pass. *)
let chrome : Telemetry.Chrome_trace.t option ref = ref None
let origin = ref 0

let timed name f =
  if not !enabled then f ()
  else begin
    let a = call name in
    let t0 = clock_ns () in
    let finish () =
      a.count <- a.count + 1;
      a.ns <- a.ns + (clock_ns () - t0)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let span name f =
  match !chrome with
  | Some ct when !enabled ->
      let at () = clock_ns () - !origin in
      let finish () = Telemetry.Chrome_trace.duration_end ct ~name ~pid:1 ~tid:1 ~at:(at ()) () in
      Telemetry.Chrome_trace.duration_begin ct ~name ~pid:1 ~tid:1 ~at:(at ()) ();
      let v =
        match timed name f with
        | v -> v
        | exception e ->
            finish ();
            raise e
      in
      finish ();
      poll_gc ();
      v
  | Some _ | None -> timed name f

(* A client call: timed under [name] and flags the event as an
   arrival. *)
let client_op name f =
  if !enabled then client_call := true;
  timed name f

let wrap_target name (target : Kvsm.Client.target) : Kvsm.Client.target =
  if not !enabled then target
  else fun ~payload ~client_id ~seq ~on_result ->
    client_op name (fun () -> target ~payload ~client_id ~seq ~on_result)

let wrap_route name route =
  if not !enabled then route else fun id -> wrap_target name (route id)

(* Minor words are kept in an all-float record so that storing them
   does not allocate inside the hook. *)
type words = { mutable last : float }

(* Install the event hook for a measured phase: the event classes and
   the GC pause total start from zero here. *)
let attach engine fabric =
  if !enabled then begin
    List.iter reset classes;
    poll_gc ();
    gc.pause_ns <- 0L;
    let w = { last = Gc.minor_words () } in
    let last_t = ref (clock_ns ()) in
    let last_delivered = ref (Netsim.Fabric.counters fabric).Netsim.Fabric.delivered in
    let n = ref 0 in
    Des.Engine.set_post_hook engine
      (Some
         (fun () ->
           let t = clock_ns () in
           let words = Gc.minor_words () in
           let delivered = (Netsim.Fabric.counters fabric).Netsim.Fabric.delivered in
           let a =
             if !election_flag then election
             else if delivered <> !last_delivered then deliver
             else if !client_call then arrival
             else timer
           in
           a.count <- a.count + 1;
           a.ns <- a.ns + (t - !last_t);
           a.words <- a.words + int_of_float (words -. w.last);
           election_flag := false;
           client_call := false;
           last_delivered := delivered;
           incr n;
           if !n land 0x3fff = 0 then poll_gc ();
           (* The hook's own cost is excluded from the next event. *)
           w.last <- Gc.minor_words ();
           last_t := clock_ns ()))
  end

let detach engine =
  if !enabled then begin
    poll_gc ();
    gc.phase_ns <- gc.pause_ns;
    Des.Engine.set_post_hook engine None
  end

(* Start a traced pass: forget the previous pass's calls and spans. *)
let begin_pass ~record_spans =
  enabled := true;
  Hashtbl.reset calls;
  poll_gc ();
  gc.lost <- 0;
  Runtime_events.resume ();
  chrome := None;
  if record_spans then begin
    let ct = Telemetry.Chrome_trace.create () in
    Telemetry.Chrome_trace.process_name ct ~pid:1 "perfbench";
    Telemetry.Chrome_trace.thread_name ct ~pid:1 ~tid:1 "bench calls";
    chrome := Some ct;
    origin := clock_ns ()
  end

let end_pass () =
  poll_gc ();
  Runtime_events.pause ();
  enabled := false

let gc_pause_ms () = Int64.to_float gc.phase_ns /. 1e6

(* Runtime events the ring overwrote before they were read: when
   nonzero, [gc_pause_ms] undercounts. *)
let gc_events_lost () = gc.lost

let per_event a num = if a.count = 0 then 0. else float_of_int num /. float_of_int a.count

let call_stats name =
  match Hashtbl.find_opt calls name with
  | Some a -> a
  | None -> acc ()
