(** Commands of the replicated key-value service (the etcd role in the
    paper's evaluation).

    Commands are serialized into the opaque payload carried by Raft log
    entries; the encoding is a simple length-prefixed text format so logs
    stay printable and decoding failures are detectable. *)

type t =
  | Put of { key : string; value : string }
  | Get of string
      (** reads are replicated too (linearizable reads via the log) *)
  | Delete of string
  | Cas of { key : string; expect : string option; value : string }
      (** compare-and-swap: succeeds iff the current value equals
          [expect] ([None] = key absent) *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_payload : t -> string
val of_payload : string -> (t, string) result
(** Inverse of [to_payload]; [Error] describes the malformation. *)

(** {2 The request path}

    A write is encoded once by its client and decoded by every replica,
    so these build and read payloads without the intermediate strings,
    records and results of a {!to_payload}/{!of_payload} round. *)

val client_put_payload : client_id:int -> slot:int -> value:string -> string
(** [to_payload (Put { key = Printf.sprintf "c%d-k%d" client_id slot;
    value })], the open-loop {!Client}'s write, without building the
    key. *)

val payload_key : string -> (string, string) result
(** The key of the command a payload encodes, copying nothing else:
    [Ok key] exactly when {!of_payload} accepts the payload, and
    {!of_payload}'s [Error] otherwise. *)

type put_span = {
  mutable key_start : int;
  mutable key_end : int;
  mutable value_start : int;
}
(** Where a Put's fields lie in its payload: the key is the bytes from
    [key_start] up to [key_end], the value those from [value_start] to
    the end of the payload. *)

val put_span : unit -> put_span

val scan_put : put_span -> string -> bool
(** [scan_put span p] is [true] exactly when {!of_payload} decodes [p]
    to a [Put], and then fills [span] with its key's and value's
    offsets.  One pass over the two length headers, reading none of the
    key's or value's bytes and allocating nothing.  On [false], [span]
    is left as it was. *)
