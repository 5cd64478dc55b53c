(** Erasure-coded reliable broadcast — the block-dissemination subprotocol
    of Protocol ICC2 (paper §1), in the lineage of Cachin–Tessaro [11] with
    one less round of latency.

    Send: the proposer Reed–Solomon-encodes the serialized bundle
    (k = t+1 of n fragments), Merkle-authenticates the fragments, signs the
    root, and sends party i its fragment.  Echo: each party forwards its
    own valid fragment to all (at most two instances per proposer and
    round).  Reconstruct: k root-consistent fragments decode, re-encode and
    re-check the signed root before delivery.  Each party's instance keeps
    the tree nodes already authenticated under the signed root
    ({!Icc_crypto.Merkle.cache}), so each node is hashed about once per
    instance.  Per-party cost is
    ~3S per block of size S; the ICC notarization share plays the usual
    "ready" role, which is where the integration saves a phase. *)

type frag = {
  f_round : int;
  f_proposer : int;
  f_root : Icc_crypto.Sha256.t;
  f_index : int;
  f_data_size : int;
  f_modeled_total : int;
  f_bytes : string;
  f_proof : Icc_crypto.Merkle.proof;
  f_sig : Icc_crypto.Schnorr.signature;
}

type wire = Core of Icc_core.Message.t | Frag of frag

type t

val serialize : Icc_core.Message.t -> string
val deserialize : string -> Icc_core.Message.t option

val create : Icc_core.Runner.transport_ctx -> t
(** The RBC over one network built by {!Icc_core.Runner.network} from the
    context: k = [tr_t] + 1 data fragments, signed with the parties'
    [tr_keys]; reconstructed blocks and small messages go up through
    [tr_deliver], and inactive parties ([tr_is_active]) neither echo nor
    deliver. *)

val tx_broadcast : t -> src:int -> Icc_core.Message.t -> unit
(** A proposer's own proposal is disseminated through the RBC; an echo of a
    block obtained through the RBC is a no-op (the fragment echo already
    guarantees totality); a block obtained outside the RBC (Byzantine
    direct delivery) is echoed in full; small messages broadcast directly. *)

val tx_unicast : t -> src:int -> dst:int -> Icc_core.Message.t -> unit
(** Byzantine split delivery of a full bundle, accounted at full size. *)

(** {1 Fragment-level access, for tests} *)

val fragment : t -> src:int -> Icc_core.Message.t -> int -> frag
(** [fragment t ~src msg i] is the fragment [i] (party [i+1]'s) that
    [src]'s Send step would disseminate for the proposal [msg]. *)

val root_text : round:int -> proposer:int -> Icc_crypto.Sha256.t -> string
(** The text a proposer signs to open an instance under a Merkle root. *)

val on_frag : t -> dst:int -> frag -> unit
(** Receive a fragment at party [dst], as if off the wire.  A fragment
    whose index [dst] already holds for the instance is dropped before any
    check.  Otherwise it is admitted when its Merkle path is leaf
    [f_index]'s, the proposer's root signature verifies (once per
    instance) and the path reaches the signed root, checked against the
    instance's node cache: the verdict of a full {!Icc_crypto.Merkle.verify}
    except on a SHA-256 collision.  After delivery this costs one leaf
    digest and at most ceil(log2 n) digest compares. *)
