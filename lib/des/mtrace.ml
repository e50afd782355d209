type 'a t = {
  engine : Engine.t;
  mutable observers : (Time.t -> 'a -> unit) list;
      (* in subscription order *)
}

let create engine = { engine; observers = [] }

let[@hot] rec notify now ev = function
  | [] -> ()
  | f :: rest ->
      f now ev;
      notify now ev rest

let[@hot] emit t ev = notify (Engine.now t.engine) ev t.observers
let subscribe t f = t.observers <- t.observers @ [ f ]

let during t f body =
  subscribe t f;
  let rec remove = function
    | [] -> []
    | g :: rest -> if g == f then rest else g :: remove rest
  in
  Fun.protect ~finally:(fun () -> t.observers <- remove t.observers) body
