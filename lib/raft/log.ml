type change =
  | Add_learner of Netsim.Node_id.t
  | Promote of Netsim.Node_id.t
  | Remove of Netsim.Node_id.t
[@@deriving show, eq] [@@protocol]

type command =
  | Noop
  | Data of { payload : string; client_id : int; seq : int }
  | Config of change
[@@deriving show, eq] [@@protocol]

type entry = { term : Types.term; index : Types.index; command : command }
[@@deriving show, eq]

type t = {
  mutable entries : entry array;
  mutable len : int;
  mutable snapshot_index : Types.index;
  mutable snapshot_term : Types.term;
  mutable mutations : int;
}

let create () =
  {
    entries = [||];
    len = 0;
    snapshot_index = 0;
    snapshot_term = 0;
    mutations = 0;
  }

let mutations t = t.mutations

let length t = t.len
let last_index t = t.snapshot_index + t.len
let snapshot_index t = t.snapshot_index
let snapshot_term t = t.snapshot_term
let first_available t = t.snapshot_index + 1

(* Entry with log index [index]; caller guarantees it is stored. *)
let nth t index = t.entries.(index - t.snapshot_index - 1)

let last_term t =
  if t.len = 0 then t.snapshot_term else (nth t (last_index t)).term

(* Option-free [term_at] for the append hot loops: -1 = absent (terms
   are never negative). *)
let term_at_raw t index =
  if index = t.snapshot_index then t.snapshot_term
  else if index < t.snapshot_index || index > last_index t then -1
  else (nth t index).term

let term_at t index =
  let raw = term_at_raw t index in
  if raw < 0 then None else Some raw

let entry_at t index =
  if index <= t.snapshot_index || index > last_index t then None
  else Some (nth t index)

let grow t entry =
  let cap = Array.length t.entries in
  if t.len = cap then begin
    let entries = Array.make (Stdlib.max 16 (2 * cap)) entry in
    Array.blit t.entries 0 entries 0 t.len;
    t.entries <- entries
  end

let push t entry =
  grow t entry;
  t.entries.(t.len) <- entry;
  t.len <- t.len + 1

let append_new t ~term command =
  let entry = { term; index = last_index t + 1; command } in
  push t entry;
  entry

(* A placeholder for freed slots: without it, truncation and compaction
   would leave the old entries (and their payloads) reachable through
   the backing array indefinitely. *)
let blank = { term = 0; index = 0; command = Noop }

(* Clear slots [t.len, old_len) and shrink the backing array once
   occupancy drops below a quarter, so a log that shrank (truncation,
   compaction, snapshot install) cannot pin its high-water storage. *)
let scrub t ~old_len =
  for i = t.len to old_len - 1 do
    t.entries.(i) <- blank
  done;
  let cap = Array.length t.entries in
  if cap > 16 && 4 * t.len < cap then begin
    let entries = Array.make (Stdlib.max 16 (2 * t.len)) blank in
    Array.blit t.entries 0 entries 0 t.len;
    t.entries <- entries
  end

let truncate_from t index =
  (* Drop entries at [index] and beyond. *)
  let len = Stdlib.max 0 (Stdlib.min t.len (index - t.snapshot_index - 1)) in
  if len <> t.len then begin
    t.mutations <- t.mutations + 1;
    let old_len = t.len in
    t.len <- len;
    scrub t ~old_len
  end

let[@hot] try_append t ~prev_index ~prev_term ~entries =
  (* Prefix check on raw terms: a predecessor below the snapshot is
     committed, hence matches by construction. *)
  let prefix_term =
    if prev_index < t.snapshot_index then prev_term
    else term_at_raw t prev_index
  in
  if prefix_term < 0 then
    (* We are missing the predecessor entirely; ask the leader to back
       off to just past our log end. *)
    `Conflict (last_index t + 1)
  else if prefix_term <> prev_term then
    (* Predecessor conflicts; everything from it onward is suspect. *)
    `Conflict prev_index
  else begin
    (* Plain counted loop (no closure, no fold, no option boxing): this
       is the follower hot path, executed once per replicated batch —
       a duplicate batch allocates nothing here. *)
    let n = Array.length entries in
    for i = 0 to n - 1 do
      let entry = entries.(i) in
      assert (entry.index >= 1);
      if entry.index > t.snapshot_index then begin
        let existing = term_at_raw t entry.index in
        if existing <> entry.term then begin
          if existing >= 0 then truncate_from t entry.index
          else assert (entry.index = last_index t + 1);
          push t entry
        end
      end
    done;
    (* Batches are contiguous and ascending: the last entry carries
       the highest index. *)
    let covered = if n = 0 then prev_index else entries.(n - 1).index in
    `Ok (Stdlib.max covered t.snapshot_index)
  end

let compact t ~upto =
  if upto > last_index t then
    invalid_arg "Log.compact: cannot compact beyond the last entry";
  if upto > t.snapshot_index then begin
    let term =
      match term_at t upto with Some term -> term | None -> assert false
    in
    let keep = last_index t - upto in
    let from = upto - t.snapshot_index in
    (* Shift the surviving suffix to the front. *)
    for i = 0 to keep - 1 do
      t.entries.(i) <- t.entries.(from + i)
    done;
    let old_len = t.len in
    t.len <- keep;
    t.snapshot_index <- upto;
    t.snapshot_term <- term;
    scrub t ~old_len
  end

let install_snapshot t ~index ~term =
  let old_len = t.len in
  t.len <- 0;
  t.snapshot_index <- index;
  t.snapshot_term <- term;
  t.mutations <- t.mutations + 1;
  scrub t ~old_len

(* Entries are stored contiguously, so a slice is a single [Array.sub]
   (and the empty case is the static atom [| |] — no allocation). *)
let slice t ~from ~max =
  let from = Stdlib.max (first_available t) from in
  let stop = Stdlib.min (last_index t) (from + max - 1) in
  if from > stop then [||]
  else Array.sub t.entries (from - t.snapshot_index - 1) (stop - from + 1)

let up_to_date t ~last_index:cand_index ~last_term:cand_term =
  let mine = last_term t in
  cand_term > mine || (cand_term = mine && cand_index >= last_index t)
