type event =
  | Timeout of {
      randomized : Des.Time.span;
      et : Des.Time.span;
      h : Des.Time.span;
      k : int;
    }
  | Campaign of { pre : bool }
  | Role of { role : string }
  | Vote of { from : int; granted : bool; pre : bool }
  | Tuner of {
      rtt_ms : float;
      loss : float;
      et : Des.Time.span;
      h : Des.Time.span;
      k : int;
      reason : string;
    }
  | Tuner_reset
  | Prevote_abort
  | Paused
  | Resumed
  | Transfer of { target : int }
  | Config of { change : string; committed : bool }

type record = {
  at : Des.Time.t;
  node : int;
  term : int;
  cause : Cause.t;
  parent : Cause.t;
  ev : event;
}

let dummy =
  { at = 0; node = 0; term = 0; cause = 0; parent = 0; ev = Tuner_reset }

type t = {
  on : bool;
  ring : record array;  (* [| |] when disabled *)
  mutable len : int;
  mutable next : int;  (* slot the next record goes into *)
  mutable dropped : int;
  mutable seq : int;  (* cause sequence counter *)
}

let create ?(capacity = 8192) ?(enabled = true) () =
  if capacity <= 0 then invalid_arg "Forensics.create: capacity must be positive";
  {
    on = enabled;
    ring = (if enabled then Array.make capacity dummy else [||]);
    len = 0;
    next = 0;
    dropped = 0;
    seq = 0;
  }

(* The shared disabled ring mutates nothing: [record]/[new_cause] bail
   on [on] before touching any field. *)
let noop = { on = false; ring = [||]; len = 0; next = 0; dropped = 0; seq = 0 }
let enabled t = t.on

let new_cause t ~kind ~node ~term =
  if not t.on then Cause.none
  else begin
    t.seq <- t.seq + 1;
    Cause.make ~kind ~node ~term ~seq:t.seq
  end

let record t ~at ~node ~term ~cause ~parent ev =
  if t.on then begin
    let cap = Array.length t.ring in
    t.ring.(t.next) <- { at; node; term; cause; parent; ev };
    t.next <- (t.next + 1) mod cap;
    if t.len < cap then t.len <- t.len + 1 else t.dropped <- t.dropped + 1
  end

let length t = t.len
let dropped t = t.dropped

let records t =
  let cap = Array.length t.ring in
  List.init t.len (fun i ->
      t.ring.((t.next - t.len + i + cap) mod cap))

let pp_event ppf = function
  | Timeout { randomized; et; h; k } ->
      Format.fprintf ppf "timeout fired (randomized %a) Et=%a h=%a K=%d"
        Des.Time.pp_ms randomized Des.Time.pp_ms et Des.Time.pp_ms h k
  | Campaign { pre } ->
      Format.fprintf ppf "campaign started%s" (if pre then " (pre-vote)" else "")
  | Role { role } -> Format.fprintf ppf "role -> %s" role
  | Vote { from; granted; pre } ->
      Format.fprintf ppf "%s from n%d: %s"
        (if pre then "pre-vote" else "vote")
        from
        (if granted then "granted" else "denied")
  | Tuner { rtt_ms; loss; et; h; k; reason } ->
      Format.fprintf ppf "tuner %s: rtt %.3fms loss %.4f -> Et=%a h=%a K=%d"
        reason rtt_ms loss Des.Time.pp_ms et Des.Time.pp_ms h k
  | Tuner_reset -> Format.pp_print_string ppf "tuner reset"
  | Prevote_abort -> Format.pp_print_string ppf "pre-vote aborted"
  | Paused -> Format.pp_print_string ppf "paused"
  | Resumed -> Format.pp_print_string ppf "resumed"
  | Transfer { target } -> Format.fprintf ppf "transfer to n%d" target
  | Config { change; committed } ->
      Format.fprintf ppf "config %s %s"
        (if committed then "committed" else "appended")
        change

let render_record r =
  Format.asprintf "%a n%d t%d %s<-%s %a" Des.Time.pp r.at r.node r.term
    (Cause.to_string r.cause) (Cause.to_string r.parent) pp_event r.ev

let tail t n =
  let all = records t in
  let len = List.length all in
  let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl in
  List.map render_record (drop (len - n) all)
