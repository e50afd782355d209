(** The five-region WAN of the paper's AWS experiment (Section IV-D):
    Tokyo, London, California, Sydney, São Paulo.

    Inter-region RTTs follow published AWS inter-region latency figures;
    each path gets mild lognormal jitter and a small residual loss rate,
    as dedicated inter-cloud circuits exhibit (Haq et al.). *)

type region = Tokyo | London | California | Sydney | Sao_paulo

val regions : region list
(** In node-id order: node [i] of a 5-node geo cluster lives in
    [List.nth regions i]. *)

val name : region -> string

val rtt_ms : region -> region -> float
(** Symmetric mean RTT between two regions; 0.2 ms within a region. *)

val conditions : region -> region -> Netsim.Conditions.t
(** Constant-profile conditions for one region pair: the pair's RTT,
    [jitter = 0.08], [loss = 0.0005]. *)

val apply : Harness.Cluster.t -> unit
(** Install the region matrix on a 5-node cluster (node ids map to
    {!regions} in order).  Raises [Invalid_argument] for other sizes. *)
