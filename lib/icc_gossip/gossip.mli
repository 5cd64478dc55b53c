(** Peer-to-peer gossip sub-layer (paper §1 and [17]) — the dissemination
    substrate of Protocol ICC1.

    Large artifacts (block proposals) travel by advert → request → deliver
    over a bounded-degree peer graph, so each node transmits a block to at
    most [fanout] peers; small artifacts (shares, certificates) are flooded.
    Each artifact's name is interned to a dense int when it enters the
    layer, and the wire carries that int; the requested/stored state is
    kept per party in arrays indexed by it, so it remains logically
    distributed.  Trace events name artifacts by {!artifact_id_of}. *)

type t

val build_peer_graph : Icc_sim.Rng.t -> n:int -> fanout:int -> int list array
(** A connected graph: ring plus [fanout - 2] random chords per node,
    symmetrised.  Index 0 is unused; exposed for testing. *)

val artifact_id_of : Icc_core.Message.t -> string
(** The artifact's name: the [artifact] of every gossip trace event. *)

val create : Icc_core.Runner.transport_ctx -> fanout:int -> t
(** Gossip over one network built by {!Icc_core.Runner.network} from the
    context, which announces every wire message on the context's bus;
    gossip-layer publish/request/acquire events (with artifact names) are
    emitted when a detail subscriber is present.  The peer graph is drawn
    from [tr_rng]; inactive parties ([tr_is_active]) neither relay nor
    answer, and acquired artifacts go up through [tr_deliver]. *)

val publish : t -> src:int -> Icc_core.Message.t -> unit
(** The protocol's "broadcast": inject an artifact at [src].  The publisher
    delivers to itself immediately; duplicates are no-ops (which is exactly
    how gossip absorbs the protocol's echo re-broadcasts). *)

val inject : t -> src:int -> dst:int -> Icc_core.Message.t -> unit
(** Byzantine split delivery: hand an artifact directly to one party,
    outside the advert/request discipline; the receiver re-gossips.
    Resync control messages ({!Icc_core.Message.is_resync}) also travel
    through here; they are never interned and bypass the stores on both
    ends — they are point-to-point and intentionally repeatable. *)

val peers : t -> int -> int list
