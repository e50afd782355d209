module Node_id = Netsim.Node_id
module Cause = Telemetry.Cause

type ev =
  | Probe of Probe.t
  | Vote of { from : Node_id.t; granted : bool; pre : bool }

type record = {
  at : Des.Time.t;
  node : Node_id.t;
  term : Types.term;
  cause : Cause.t;
  parent : Cause.t;
  ev : ev;
}

let capacity = 8192

let dummy =
  let n0 = Node_id.of_int 0 in
  let ev = Vote { from = n0; granted = false; pre = false } in
  { at = 0; node = n0; term = 0; cause = Cause.none; parent = Cause.none; ev }

type t = {
  on : bool;
  ring : record array;  (* [| |] when disabled *)
  mutable len : int;
  mutable next : int;  (* slot the next record goes into *)
  mutable dropped : int;
  mutable seq : int;  (* cause sequence counter *)
}

let create ?(enabled = true) () =
  {
    on = enabled;
    ring = (if enabled then Array.make capacity dummy else [||]);
    len = 0;
    next = 0;
    dropped = 0;
    seq = 0;
  }

let enabled t = t.on

let new_cause t ~kind ~node ~term =
  if not t.on then Cause.none
  else begin
    t.seq <- t.seq + 1;
    Cause.make ~kind ~node ~term ~seq:t.seq
  end

let record t ~at ~node ~term ~cause ~parent ev =
  if t.on then begin
    t.ring.(t.next) <- { at; node; term; cause; parent; ev };
    t.next <- (t.next + 1) mod capacity;
    if t.len < capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1
  end

let length t = t.len
let dropped t = t.dropped

(* The newest [n] retained records, oldest first. *)
let newest t n =
  let n = Int.max 0 (Int.min n t.len) in
  List.init n (fun i -> t.ring.((t.next - n + i + capacity) mod capacity))

let records t = newest t t.len

let pp_ev ppf ev =
  let text = Format.pp_print_string ppf in
  match ev with
  | Vote { from; granted; pre } ->
      Format.fprintf ppf "%s from %a: %s"
        (if pre then "pre-vote" else "vote")
        Node_id.pp from
        (if granted then "granted" else "denied")
  | Probe (Probe.Timeout_expired { randomized; et; h; k; _ }) ->
      Format.fprintf ppf "timeout fired (randomized %a) Et=%a h=%a K=%d"
        Des.Time.pp_ms randomized Des.Time.pp_ms et Des.Time.pp_ms h k
  | Probe (Probe.Election_started _) -> text "campaign started"
  | Probe (Probe.Role_change { role; _ }) ->
      text ("role -> " ^ Types.role_name role)
  | Probe (Probe.Tuner_decision { rtt_ms; loss; et; h; k; reason; _ }) ->
      Format.fprintf ppf "tuner %s: rtt %.3fms loss %.4f -> Et=%a h=%a K=%d"
        (Probe.reason_name reason) rtt_ms loss Des.Time.pp_ms et Des.Time.pp_ms
        h k
  | Probe (Probe.Tuner_reset _) -> text "tuner reset"
  | Probe (Probe.Pre_vote_aborted _) -> text "pre-vote aborted"
  | Probe (Probe.Node_paused _) -> text "paused"
  | Probe (Probe.Node_resumed _) -> text "resumed"
  | Probe (Probe.Transfer_started { target; _ }) ->
      Format.fprintf ppf "transfer to %a" Node_id.pp target
  | Probe (Probe.Transfer_aborted _) -> text "transfer aborted"
  | Probe (Probe.Config_change { change; committed; _ }) ->
      Format.fprintf ppf "config %s %a"
        (if committed then "committed" else "appended")
        Log.pp_change change

let render_record r =
  Format.asprintf "%a %a t%d %s<-%s %a" Des.Time.pp r.at Node_id.pp r.node
    r.term (Cause.to_string r.cause) (Cause.to_string r.parent) pp_ev r.ev

let tail t n = List.map render_record (newest t n)
