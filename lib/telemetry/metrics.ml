type key = { scope : string; name : string; node : string }

let compare_key a b =
  match String.compare a.scope b.scope with
  | 0 -> (
      match String.compare a.name b.name with
      | 0 -> String.compare a.node b.node
      | c -> c)
  | c -> c

let key_label k =
  if k.node = "" then k.scope ^ "/" ^ k.name
  else k.scope ^ "/" ^ k.name ^ "@" ^ k.node

(* A handle is its cell behind [Some].  A disabled registry hands out
   [None], the dead handle, so every emission on the hot path costs
   exactly one branch. *)

module Counter = struct
  type cell = { mutable n : int }
  type t = cell option

  let dead : t = None
  let incr = function None -> () | Some c -> c.n <- c.n + 1
  let add t k = match t with None -> () | Some c -> c.n <- c.n + k
  let value = function None -> 0 | Some c -> c.n
end

module Gauge = struct
  type cell = { mutable v : float; mutable present : bool }
  type t = cell option

  let dead : t = None

  let set t x =
    match t with
    | None -> ()
    | Some g ->
        g.v <- x;
        g.present <- true

  let set_max t x =
    match t with
    | Some g when (not g.present) || x > g.v ->
        g.v <- x;
        g.present <- true
    | Some _ | None -> ()

  let value = function None -> 0. | Some g -> g.v
end

module Histogram = struct
  type t = Stats.Histogram.t option

  let dead : t = None

  let observe t x =
    match t with None -> () | Some h -> Stats.Histogram.add h x
end

type cell =
  | Counter_cell of Counter.cell
  | Gauge_cell of Gauge.cell
  | Histogram_cell of Stats.Histogram.t

type t = {
  enabled : bool;
  cells : (key, cell) Hashtbl.t;
  mutable order : key list; (* registration order, newest first *)
}

let create ?(enabled = true) () =
  { enabled; cells = Hashtbl.create 64; order = [] }

(* Shared no-op registry.  Registration on a disabled registry
   short-circuits before touching the table, so this value is never
   mutated and is safe to share across campaign domains. *)
let noop = create ~enabled:false ()

let enabled t = t.enabled

let register t key fresh =
  match Hashtbl.find_opt t.cells key with
  | Some cell -> cell
  | None ->
      let cell = fresh () in
      Hashtbl.add t.cells key cell;
      t.order <- key :: t.order;
      cell

let kind_error key want =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered with a different kind (%s)"
       (key_label key) want)

let counter t ~scope ~name ?(node = "") () =
  if not t.enabled then Counter.dead
  else
    let key = { scope; name; node } in
    match register t key (fun () -> Counter_cell { Counter.n = 0 }) with
    | Counter_cell c -> Some c
    | Gauge_cell _ | Histogram_cell _ -> kind_error key "counter"

let gauge t ~scope ~name ?(node = "") () =
  if not t.enabled then Gauge.dead
  else
    let key = { scope; name; node } in
    match
      register t key (fun () ->
          Gauge_cell { Gauge.v = 0.; present = false })
    with
    | Gauge_cell g -> Some g
    | Counter_cell _ | Histogram_cell _ -> kind_error key "gauge"

let histogram t ~scope ~name ?(node = "") ~lo ~hi ~bins () =
  if not t.enabled then Histogram.dead
  else
    let key = { scope; name; node } in
    match
      register t key (fun () ->
          Histogram_cell (Stats.Histogram.create ~lo ~hi ~bins))
    with
    | Histogram_cell h -> Some h
    | Counter_cell _ | Gauge_cell _ -> kind_error key "histogram"

(* {2 Snapshots} *)

type value =
  | Count of int
  | Level of float
  | Series of Stats.Histogram.t

type snapshot = (key * value) list

let snapshot t =
  List.rev t.order
  |> List.filter_map (fun key ->
         match Hashtbl.find_opt t.cells key with
         | Some (Counter_cell c) -> Some (key, Count c.Counter.n)
         | Some (Gauge_cell g) ->
             if g.Gauge.present then Some (key, Level g.Gauge.v) else None
         | Some (Histogram_cell h) -> Some (key, Series (Stats.Histogram.copy h))
         | None -> None)
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let merge_values key a b =
  match (a, b) with
  | Count x, Count y -> Count (x + y)
  | Level x, Level y -> Level (if y > x then y else x)
  | Series x, Series y -> Series (Stats.Histogram.merge x y)
  | (Count _ | Level _ | Series _), _ ->
      invalid_arg
        ("Metrics.merge: " ^ key_label key ^ " has mismatched kinds across parts")

(* Union of keys; counters sum, gauges keep the max, histograms merge
   bin-wise when congruent.  The merge is associative and campaigns apply it
   in shard order, so sharded campaigns aggregate deterministically
   whatever the worker count. *)
let merge parts =
  let merged = Hashtbl.create 64 in
  List.iter
    (fun part ->
      List.iter
        (fun (key, v) ->
          match Hashtbl.find_opt merged key with
          | None -> Hashtbl.add merged key v
          | Some prev -> Hashtbl.replace merged key (merge_values key prev v))
        part)
    parts;
  Hashtbl.fold (fun key v acc -> (key, v) :: acc) merged []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

(* {2 Rendering} *)

(* One fixed float syntax so snapshots compare bit-for-bit: shortest
   round-trippable decimal, with non-finite values mapped to null. *)
let json_float x =
  if Float.is_nan x || Float.abs x = Float.infinity then "null"
  else
    let s = Printf.sprintf "%.17g" x in
    if float_of_string s = x then
      let shorter = Printf.sprintf "%.15g" x in
      if float_of_string shorter = x then shorter else s
    else s

let value_to_json = function
  | Count n -> string_of_int n
  | Level v -> json_float v
  | Series h ->
      let b = Buffer.create 128 in
      Buffer.add_string b
        (Printf.sprintf "{\"count\": %d, \"lo\": %s, \"hi\": %s, "
           (Stats.Histogram.count h)
           (json_float (Stats.Histogram.lo h))
           (json_float (Stats.Histogram.hi h)));
      Buffer.add_string b
        (Printf.sprintf "\"underflow\": %d, \"overflow\": %d, \"bins\": ["
           (Stats.Histogram.underflow h)
           (Stats.Histogram.overflow h));
      for i = 0 to Stats.Histogram.bins h - 1 do
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (string_of_int (Stats.Histogram.bin_count h i))
      done;
      Buffer.add_string b "]}";
      Buffer.contents b

let to_json snapshot =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{";
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n    \"";
      Buffer.add_string b (Chrome_trace.escape (key_label key));
      Buffer.add_string b "\": ";
      Buffer.add_string b (value_to_json v))
    snapshot;
  if snapshot <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "}";
  Buffer.contents b

let pp ppf snapshot =
  List.iter
    (fun (key, v) ->
      match v with
      | Count n -> Format.fprintf ppf "%-40s %d@." (key_label key) n
      | Level x -> Format.fprintf ppf "%-40s %g@." (key_label key) x
      | Series h ->
          Format.fprintf ppf "%-40s n=%d@." (key_label key)
            (Stats.Histogram.count h))
    snapshot
