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

let add_node = Netsim.Node_id.add_to_buffer
let add_ms = Des.Time.add_ms_to_buffer

let add_to_buffer b = function
  | Role_change { id; role; term } ->
      Printf.bprintf b "%a -> %s (term %d)" add_node id
        (Types.role_name role) term
  | Timeout_expired { id; term; randomized; _ } ->
      Printf.bprintf b "%a timeout (%a) in term %d" add_node id add_ms
        randomized term
  | Pre_vote_aborted { id; term } ->
      Printf.bprintf b "%a pre-vote aborted (term %d)" add_node id term
  | Tuner_reset { id } -> Printf.bprintf b "%a tuner reset" add_node id
  | Tuner_decision { id; rtt_ms; rtt_std_ms; loss; k; et; h; reason } ->
      Printf.bprintf b
        "%a tuner %s: rtt %.3f±%.3fms loss %.4f -> Et %a H %a k %d" add_node
        id (reason_name reason) rtt_ms rtt_std_ms loss add_ms et add_ms h k
  | Election_started { id; term } ->
      Printf.bprintf b "%a election started (term %d)" add_node id term
  | Node_paused { id } -> Printf.bprintf b "%a paused" add_node id
  | Node_resumed { id } -> Printf.bprintf b "%a resumed" add_node id
  | Config_change { id; term; index; change; committed } ->
      Printf.bprintf b "%a config %s %s at index %d (term %d)" add_node id
        (if committed then "committed" else "appended")
        (Log.show_change change)
        index term
  | Transfer_started { id; term; target } ->
      Printf.bprintf b "%a transfer to %a (term %d)" add_node id add_node
        target term
  | Transfer_aborted { id; term } ->
      Printf.bprintf b "%a transfer aborted (term %d)" add_node id term

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
