type change =
  | Add_learner of Netsim.Node_id.t
  | Promote of Netsim.Node_id.t
  | Remove of Netsim.Node_id.t
[@@deriving show, eq]

type command =
  | Noop
  | Data of { payload : string; client_id : int; seq : int }
  | Config of change
[@@deriving show, eq]

type entry = { term : Types.term; index : Types.index; command : command }
[@@deriving show, eq]

(* Entries live in fixed-size pages behind a directory.  The entry at
   log index [i] sits at position [i - 1]: in page [(i - 1) / page_size]
   counted from the page that holds position [snapshot_index], at slot
   [(i - 1) mod page_size].  Pages are never copied once full, empty
   space is at most one page, and compaction drops whole pages from the
   front.  The first page of a directory starts at 16 slots and doubles
   up to [page_size], so a near-empty log stays small; every later page
   is allocated whole, on the major heap. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  mutable pages : entry array array;
      (* the directory: [[||]] past the last allocated page *)
  mutable len : int;
  mutable snapshot_index : Types.index;
  mutable snapshot_term : Types.term;
  mutable mutations : int;
  mutable configs : Types.index list;
      (* indices of the stored [Config] entries, ascending *)
  mutable window : entry array;  (* the last [slice]; every drop resets it *)
}

let create () =
  {
    pages = [||];
    len = 0;
    snapshot_index = 0;
    snapshot_term = 0;
    mutations = 0;
    configs = [];
    window = [||];
  }

let mutations t = t.mutations
let config_indices t = t.configs

let length t = t.len
let last_index t = t.snapshot_index + t.len
let snapshot_index t = t.snapshot_index
let snapshot_term t = t.snapshot_term
let first_available t = t.snapshot_index + 1

(* Directory slot of the page holding position [pos]. *)
let page_of t pos = (pos lsr page_bits) - (t.snapshot_index lsr page_bits)

(* Entry with log index [index]; caller guarantees it is stored. *)
let nth t index =
  let pos = index - 1 in
  t.pages.(page_of t pos).(pos land page_mask)

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

(* A placeholder for empty and freed slots: without it, truncation and
   compaction would leave the old entries (and their payloads)
   reachable through a kept page indefinitely. *)
let blank = { term = 0; index = 0; command = Noop }

(* The page that will hold [slot] of directory slot [k], at least
   [slot + 1] long: a directory's first page doubles from 16 slots,
   every other page is allocated whole. *)
let page_for t k slot =
  if k >= Array.length t.pages then begin
    let pages = Array.make (Int.max 1 (2 * Array.length t.pages)) [||] in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  let page = t.pages.(k) in
  if slot < Array.length page then page
  else begin
    let size =
      ref (if k = 0 then Int.max 16 (2 * Array.length page) else page_size)
    in
    while !size <= slot do
      size := 2 * !size
    done;
    let grown = Array.make (Int.min page_size !size) blank in
    Array.blit page 0 grown 0 (Array.length page);
    t.pages.(k) <- grown;
    grown
  end

let push t entry =
  let pos = entry.index - 1 in
  (page_for t (page_of t pos) (pos land page_mask)).(pos land page_mask) <-
    entry;
  t.len <- t.len + 1;
  match entry.command with
  | Config _ -> t.configs <- t.configs @ [ entry.index ]
  | Noop | Data _ -> ()

let append_new t ~term command =
  let entry = { term; index = last_index t + 1; command } in
  push t entry;
  entry

(* Blank positions [from, until) of directory slot [k], where that page
   exists. *)
let blank_slots t k ~from ~until =
  if k < Array.length t.pages then begin
    let page = t.pages.(k) in
    for pos = from to until - 1 do
      let slot = pos land page_mask in
      if slot < Array.length page then page.(slot) <- blank
    done
  end

(* Free the directory's pages from slot [k] on. *)
let free_pages_from t k =
  for j = k to Array.length t.pages - 1 do
    t.pages.(j) <- [||]
  done

(* Truncation's drop, once [len] fell from [old_len]: the pages past
   the last kept entry are freed and the kept last page's freed slots
   blanked, so a truncated entry's payload is not retained.  Every
   rewrite of a stored slot comes through here. *)
let drop_back t ~old_len =
  t.window <- [||];
  if t.len = 0 then free_pages_from t 0
  else begin
    let last = t.snapshot_index + t.len - 1 in
    let k = page_of t last in
    blank_slots t k ~from:(last + 1)
      ~until:(Int.min (t.snapshot_index + old_len) ((last lor page_mask) + 1));
    free_pages_from t (k + 1)
  end

let truncate_from t index =
  (* Drop entries at [index] and beyond. *)
  let len = Int.max 0 (Int.min t.len (index - t.snapshot_index - 1)) in
  if len <> t.len then begin
    t.mutations <- t.mutations + 1;
    let old_len = t.len in
    t.len <- len;
    let last = last_index t in
    t.configs <- List.filter (fun i -> i <= last) t.configs;
    drop_back t ~old_len
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
    `Ok (Int.max covered t.snapshot_index)
  end

let compact t ~upto =
  if upto > last_index t then
    invalid_arg "Log.compact: cannot compact beyond the last entry";
  if upto > t.snapshot_index then begin
    let term =
      match term_at t upto with Some term -> term | None -> assert false
    in
    let from = t.snapshot_index in
    let drop = page_of t upto in
    (* Whole pages below the new boundary's page go, the rest move to
       the directory's front, and the compacted slots of the page that
       stays are blanked. *)
    let n = Array.length t.pages in
    for k = 0 to n - 1 do
      t.pages.(k) <- (if k + drop < n then t.pages.(k + drop) else [||])
    done;
    t.len <- last_index t - upto;
    t.snapshot_index <- upto;
    t.snapshot_term <- term;
    t.window <- [||];
    blank_slots t 0
      ~from:(Int.max from (upto land lnot page_mask))
      ~until:upto;
    t.configs <- List.filter (fun i -> i > upto) t.configs
  end

let install_snapshot t ~index ~term =
  t.pages <- [||];
  t.len <- 0;
  t.snapshot_index <- index;
  t.snapshot_term <- term;
  t.mutations <- t.mutations + 1;
  t.configs <- [];
  t.window <- [||]

(* A slice inside one page is a single [Array.sub], one that straddles
   pages one blit per page into a fresh array, and the empty case is
   the static atom [| |] (no allocation).  A retransmit, probe or commit of
   the last window gets that array back: windows are immutable, and no
   slot of it changed unless a drop reset the memo. *)
let slice t ~from ~max =
  let from = Int.max (first_available t) from in
  let stop = Int.min (last_index t) (from + max - 1) in
  let len = stop - from + 1 in
  if from > stop then [||]
  else if Array.length t.window = len && t.window.(0).index = from then
    t.window
  else begin
    let pos = from - 1 in
    let slot = pos land page_mask in
    let window =
      if slot + len <= page_size then
        Array.sub t.pages.(page_of t pos) slot len
      else begin
        let window = Array.make len blank in
        let copied = ref 0 in
        while !copied < len do
          let pos = pos + !copied in
          let slot = pos land page_mask in
          let n = Int.min (len - !copied) (page_size - slot) in
          Array.blit t.pages.(page_of t pos) slot window !copied n;
          copied := !copied + n
        done;
        window
      end
    in
    t.window <- window;
    window
  end

let up_to_date t ~last_index:cand_index ~last_term:cand_term =
  let mine = last_term t in
  cand_term > mine || (cand_term = mine && cand_index >= last_index t)
