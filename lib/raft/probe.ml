type decision_reason = Warmed | Retuned | Reconfigured

type t =
  | Role_change of { id : Netsim.Node_id.t; role : Types.role; term : Types.term }
  | Timeout_expired of {
      id : Netsim.Node_id.t;
      term : Types.term;
      randomized : Des.Time.span;
      et : Des.Time.span;
      h : Des.Time.span;
      k : int;
    }
  | Pre_vote_aborted of { id : Netsim.Node_id.t; term : Types.term }
  | Tuner_reset of { id : Netsim.Node_id.t }
  | Tuner_decision of {
      id : Netsim.Node_id.t;
      rtt_ms : float;
      rtt_std_ms : float;
      loss : float;
      k : int;
      et : Des.Time.span;
      h : Des.Time.span;
      reason : decision_reason;
    }
  | Election_started of { id : Netsim.Node_id.t; term : Types.term }
  | Node_paused of { id : Netsim.Node_id.t }
  | Node_resumed of { id : Netsim.Node_id.t }
  | Config_change of {
      id : Netsim.Node_id.t;
      term : Types.term;
      index : Types.index;
      change : Log.change;
      committed : bool;
    }
  | Transfer_started of {
      id : Netsim.Node_id.t;
      term : Types.term;
      target : Netsim.Node_id.t;
    }
  | Transfer_aborted of { id : Netsim.Node_id.t; term : Types.term }

let reason_name = function
  | Warmed -> "warmed"
  | Retuned -> "retuned"
  | Reconfigured -> "reconfigured"

(* The digested text is written with plain [Buffer] adds and an integer
   writer, no format interpreter: it is rendered for every probe a
   cluster's digest sees.  Only the tuner's decision, which no digest
   reads, still goes through [Printf]. *)
let add_node = Netsim.Node_id.add_to_buffer
let add_int = Netsim.Node_id.add_int_to_buffer
let add_ms = Des.Time.add_ms_to_buffer
let add = Buffer.add_string

(* " (term <term>)" *)
let add_term b term =
  add b " (term ";
  add_int b term;
  Buffer.add_char b ')'

let add_to_buffer b = function
  | Role_change { id; role; term } ->
      add_node b id;
      add b " -> ";
      add b (Types.role_name role);
      add_term b term
  | Timeout_expired { id; term; randomized; _ } ->
      add_node b id;
      add b " timeout (";
      add_ms b randomized;
      add b ") in term ";
      add_int b term
  | Pre_vote_aborted { id; term } ->
      add_node b id;
      add b " pre-vote aborted";
      add_term b term
  | Tuner_reset { id } ->
      add_node b id;
      add b " tuner reset"
  | Tuner_decision { id; rtt_ms; rtt_std_ms; loss; k; et; h; reason } ->
      Printf.bprintf b
        "%a tuner %s: rtt %.3f±%.3fms loss %.4f -> Et %a H %a k %d" add_node
        id (reason_name reason) rtt_ms rtt_std_ms loss add_ms et add_ms h k
  | Election_started { id; term } ->
      add_node b id;
      add b " election started";
      add_term b term
  | Node_paused { id } ->
      add_node b id;
      add b " paused"
  | Node_resumed { id } ->
      add_node b id;
      add b " resumed"
  | Config_change { id; term; index; change; committed } ->
      add_node b id;
      add b " config ";
      add b (if committed then "committed " else "appended ");
      add b (Log.show_change change);
      add b " at index ";
      add_int b index;
      add_term b term
  | Transfer_started { id; term; target } ->
      add_node b id;
      add b " transfer to ";
      add_node b target;
      add_term b term
  | Transfer_aborted { id; term } ->
      add_node b id;
      add b " transfer aborted";
      add_term b term

let node = function
  | Role_change { id; _ }
  | Timeout_expired { id; _ }
  | Pre_vote_aborted { id; _ }
  | Tuner_reset { id }
  | Tuner_decision { id; _ }
  | Election_started { id; _ }
  | Node_paused { id }
  | Node_resumed { id }
  | Config_change { id; _ }
  | Transfer_started { id; _ }
  | Transfer_aborted { id; _ } ->
      id
