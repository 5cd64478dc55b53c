(* Shared identifiers, commands, wire messages and signed-text encodings for
   the ICC protocols (paper §3.4).

   Every signature in the protocol is over one of the canonical strings
   built here, so authenticators, notarizations, finalizations and beacon
   shares are domain-separated and bound to (round, proposer, block hash)
   exactly as in the paper. *)

type party_id = int (* 1-based *)
type round = int (* >= 1 for real blocks; 0 is the root *)
type rank = int (* 0 = leader *)

type command = {
  cmd_id : int;
  cmd_size : int; (* modeled payload bytes *)
  submitted_at : float;
  tag : string; (* opaque application data, e.g. an SMR operation *)
}

let command ?(tag = "") ~cmd_id ~cmd_size ~submitted_at () =
  { cmd_id; cmd_size; submitted_at; tag }

type payload = {
  commands : command list;
  filler_size : int; (* extra modeled bytes (management data) *)
}

let empty_payload = { commands = []; filler_size = 0 }

let payload_size p =
  List.fold_left (fun acc c -> acc + c.cmd_size) p.filler_size p.commands

(* Digest preimages are written into one scratch buffer, shared by every
   digest here and in {!Block}, and hashed from one copy: no [Printf]
   string per command and no [String.concat].  It starts at one byte, so
   loading the module allocates no scratch; the first digests grow it to
   the largest preimage. *)
let scratch = Buffer.create 1

let digest_with write =
  Buffer.clear scratch;
  write scratch;
  Icc_crypto.Sha256.digest_string (Buffer.contents scratch)

(* [string_of_int n], digit by digit. *)
let rec add_decimal buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_decimal buf (n / 10);
    Buffer.add_char buf (Char.chr (Char.code '0' + (n mod 10)))
  end

(* The filler size, then ",id:tag" per command. *)
let payload_digest p =
  digest_with (fun buf ->
      add_decimal buf p.filler_size;
      List.iter
        (fun c ->
          Buffer.add_char buf ',';
          add_decimal buf c.cmd_id;
          Buffer.add_char buf ':';
          Buffer.add_string buf c.tag)
        p.commands)

(* Signed-text encodings (paper §3.4): the tuples
   (authenticator|notarization|finalization, k, alpha, H(B)) as one kind
   byte, the 32 raw digest bytes, then LEB128 k and alpha.  Fixed-width
   fields first and self-delimiting varints last keep the encoding
   injective for every int, and typical texts (k < 2^14, alpha < 128) are
   36 bytes, so a Schnorr challenge over one fits in a single SHA-256
   block (DESIGN.md §3.11). *)

let signed_text kind ~round ~proposer ~block_hash =
  let buf = Buffer.create 40 in
  Buffer.add_char buf kind;
  Buffer.add_string buf (block_hash : Icc_crypto.Sha256.t :> string);
  Leb128.add_int buf round;
  Leb128.add_int buf proposer;
  Buffer.contents buf

let authenticator_text = signed_text '\x01'
let notarization_text = signed_text '\x02'
let finalization_text = signed_text '\x03'

(* The random beacon chain: R_k is the unique threshold signature on a text
   binding round number and R_{k-1} (paper §2.3). *)

let beacon_genesis = "icc-beacon-genesis"

let beacon_text ~round ~prev_sigma =
  Printf.sprintf "beacon|%d|%s" round prev_sigma

(* Certificates and shares carried on the wire. *)

type cert = {
  c_round : round;
  c_proposer : party_id;
  c_block_hash : Icc_crypto.Sha256.t;
  c_multisig : Icc_crypto.Multisig.signature;
}

type share_msg = {
  s_round : round;
  s_proposer : party_id;
  s_block_hash : Icc_crypto.Sha256.t;
  s_share : Icc_crypto.Multisig.share;
}
