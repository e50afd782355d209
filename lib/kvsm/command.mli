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

val put_key_end : string -> int
(** [-1] unless {!of_payload} decodes the payload to a [Put]; then the
    offset just past the key's bytes, where the value's length header
    starts.  The key is the bytes from [field_start p 1] up to
    [put_key_end p]; the value runs from [field_start p (put_key_end p)]
    to the end of [p]. *)

val field_start : string -> int -> int
(** [field_start p pos] is the offset of the first byte of the field
    whose length header starts at [pos], in a payload {!of_payload}
    accepts. *)
