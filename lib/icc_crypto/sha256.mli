(** SHA-256 (FIPS 180-4), pure OCaml.

    Used as the collision-resistant hash function [H] of the ICC protocols
    (paper §2.1). *)

type t = private string
(** A 32-byte digest. *)

val digest_length : int

val digest_bytes : Bytes.t -> t
val digest_string : string -> t

val digest_subbytes : Bytes.t -> int -> int -> t
(** [digest_subbytes b off len] is the digest of the [len] bytes of [b]
    from [off], hashed in place; raises [Invalid_argument] on a range
    outside [b]. *)

val to_hex : t -> string

val add_hex : Buffer.t -> t -> unit
(** Appends {!to_hex}'s 64 characters to a buffer. *)

val short_hex : t -> string
(** First 12 hex chars of {!to_hex} — the abbreviated digest form carried
    on the simulation trace bus. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val of_raw : string -> t
(** Reinterpret 32 raw bytes as a digest (wire decoding); raises
    [Invalid_argument] on any other length. *)

val to_int61 : t -> int
(** The first 61 bits of the digest as a non-negative int, for deriving
    field elements and deterministic seeds from digests. *)

val pp : Format.formatter -> t -> unit
