(** Transport semantics over a {!Link}.

    Dynatune sends heartbeats over UDP and consensus traffic over TCP
    (Section III-E); the two transports differ in loss behaviour and
    ordering, which is exactly what these two kinds model. *)

type kind =
  | Datagram
      (** UDP-like: messages may be lost, duplicated, or reordered by
          variable delay. *)
  | Reliable
      (** TCP-like: per-(src,dst) FIFO delivery; loss becomes
          retransmission delay. *)

type lane =
  | Urgent
      (** protocol-critical traffic (heartbeats, votes, TimeoutNow):
          jumps ahead of any queued bulk messages at the egress *)
  | Bulk
      (** entry-carrying replication traffic: queues behind urgent
          messages when the sender's NIC is busy *)
(** Egress scheduling class.  Lanes only matter on a {!Fabric} link with
    a configured serialization delay; without one every message departs
    immediately and the lane is ignored. *)

module Channel : sig
  (** Per-(src,dst) reliable-channel ordering state. *)

  type t

  val create : unit -> t

  val delivery_time : t -> now:Des.Time.t -> latency:Des.Time.span -> Des.Time.t
  (** Arrival instant for a message sent now with the given sampled
      latency, pushed later if needed so deliveries on this channel stay
      in send order (head-of-line blocking, as TCP exhibits under
      retransmission). *)
end
