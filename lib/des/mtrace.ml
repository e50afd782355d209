type 'a t = {
  engine : Engine.t;
  mutable events : (Time.t * 'a) list; (* newest first *)
  mutable observers : (Time.t -> 'a -> unit) list;
}

let create engine = { engine; events = []; observers = [] }
let engine t = t.engine

let emit t ev =
  let now = Engine.now t.engine in
  t.events <- (now, ev) :: t.events;
  List.iter (fun f -> f now ev) t.observers

let events t = List.rev t.events
let iter t ~f = List.iter (fun (time, ev) -> f time ev) (events t)

let find_first t ~after ~f =
  let rec scan = function
    | [] -> None
    | (time, ev) :: rest ->
        if time > after && f ev then Some (time, ev) else scan rest
  in
  scan (events t)

let clear t = t.events <- []
let subscribe t f = t.observers <- t.observers @ [ f ]
