type tick = { t_at : Des.Time.t; t_values : (string * float) list }

type live = {
  every : Des.Time.span;
  mutable ticks : tick list;  (* newest first *)
  mutable count : int;
}

(* [None] is the disabled recorder. *)
type t = live option

let create ~every () =
  if every <= 0 then invalid_arg "Recorder.create: every must be positive";
  Some { every; ticks = []; count = 0 }

let noop : t = None
let ticks = function None -> [] | Some t -> t.ticks

(* Counters and gauges only: a histogram is already a cumulative
   structure, and flattening one per tick would dwarf the scalars. *)
let values_of snapshot =
  List.filter_map
    (fun (key, v) ->
      match (v : Metrics.value) with
      | Metrics.Count n -> Some (Metrics.key_label key, float_of_int n)
      | Metrics.Level x -> Some (Metrics.key_label key, x)
      | Metrics.Series _ -> None)
    snapshot

let attach t engine sample =
  match t with
  | None -> ()
  | Some t ->
      let rec fire () =
        t.ticks <-
          { t_at = Des.Engine.now engine; t_values = values_of (sample ()) }
          :: t.ticks;
        t.count <- t.count + 1;
        ignore
          (Des.Engine.schedule_after engine t.every fire : Des.Engine.handle)
      in
      ignore
        (Des.Engine.schedule_after engine t.every fire : Des.Engine.handle)

let samples = function None -> 0 | Some t -> t.count

type dump = (string * (float * float) array) list

let dump t =
  let series : (string, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun tick ->
      let ms = Des.Time.to_ms_f tick.t_at in
      List.iter
        (fun (key, v) ->
          match Hashtbl.find_opt series key with
          | Some l -> l := (ms, v) :: !l
          | None -> Hashtbl.add series key (ref [ (ms, v) ]))
        tick.t_values)
    (List.rev (ticks t));
  Hashtbl.fold (fun key l acc -> (key, Array.of_list (List.rev !l)) :: acc)
    series []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge dumps =
  List.concat
    (List.mapi
       (fun i d ->
         let prefix = "s" ^ string_of_int i ^ "/" in
         List.map (fun (key, samples) -> (prefix ^ key, samples)) d)
       dumps)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_csv (d : dump) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "t_ms";
  List.iter
    (fun (key, _) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf key)
    d;
  Buffer.add_char buf '\n';
  (* Union of sampled instants, ascending; per-series cursors walk the
     (time-sorted) sample arrays in step. *)
  let times = Hashtbl.create 64 in
  List.iter
    (fun (_, samples) ->
      Array.iter (fun (ms, _) -> Hashtbl.replace times ms ()) samples)
    d;
  let instants =
    Hashtbl.fold (fun ms () acc -> ms :: acc) times []
    |> List.sort Float.compare
  in
  let cursors = List.map (fun (_, samples) -> (samples, ref 0)) d in
  List.iter
    (fun ms ->
      Buffer.add_string buf (Printf.sprintf "%.3f" ms);
      List.iter
        (fun (samples, cur) ->
          Buffer.add_char buf ',';
          if
            !cur < Array.length samples
            && fst samples.(!cur) = ms
          then begin
            Buffer.add_string buf (fmt_value (snd samples.(!cur)));
            incr cur
          end)
        cursors;
      Buffer.add_char buf '\n')
    instants;
  Buffer.contents buf

(* "scope/name@node" -> metric name "scope_name" + node label; any
   character outside the OpenMetrics name alphabet becomes '_'. *)
let om_name_and_label key =
  let key, node =
    match String.index_opt key '@' with
    | Some i ->
        ( String.sub key 0 i,
          Some (String.sub key (i + 1) (String.length key - i - 1)) )
    | None -> (key, None)
  in
  let name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      key
  in
  (name, node)

let to_openmetrics (d : dump) =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun (key, samples) ->
      let name, node = om_name_and_label key in
      if not (Hashtbl.mem typed name) then begin
        Hashtbl.add typed name ();
        Buffer.add_string buf ("# TYPE " ^ name ^ " gauge\n")
      end;
      Array.iter
        (fun (ms, v) ->
          Buffer.add_string buf name;
          (match node with
          | Some n -> Buffer.add_string buf ("{node=\"" ^ n ^ "\"}")
          | None -> ());
          Buffer.add_string buf
            (Printf.sprintf " %s %.6f\n" (fmt_value v) (ms /. 1000.)))
        samples)
    d;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let window t n =
  let rec take k l =
    if k <= 0 then []
    else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl
  in
  take n (ticks t)
  |> List.rev_map (fun tick ->
         let b = Buffer.create 128 in
         Buffer.add_string b (Format.asprintf "%a" Des.Time.pp tick.t_at);
         List.iter
           (fun (k, v) ->
             Buffer.add_char b ' ';
             Buffer.add_string b k;
             Buffer.add_char b '=';
             Buffer.add_string b (fmt_value v))
           tick.t_values;
         Buffer.contents b)
