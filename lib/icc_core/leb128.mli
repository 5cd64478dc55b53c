(** Unsigned LEB128 varints over the 64-bit two's complement of an int:
    one byte below 128, ten for any negative int.  Self-delimiting, so a
    varint followed by further fields parses unambiguously.  The reader
    lives in {!Codec}, which also rejects non-canonical encodings. *)

val add_int : Buffer.t -> int -> unit
