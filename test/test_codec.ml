(* Wire codec tests: roundtrips for every message variant, determinism, and
   robustness on adversarial bytes. *)

let kit = Kit.make ~n:4 ~t:1 ()

let sample_block ?(cmds = 2) () =
  let commands =
    List.init cmds (fun i ->
        Icc_core.Types.command
          ~tag:(Printf.sprintf "set|k%d|v%d" i i)
          ~cmd_id:(100 + i) ~cmd_size:64 ~submitted_at:(1.5 +. float_of_int i)
          ())
  in
  Kit.block
    ~payload:{ Icc_core.Types.commands; filler_size = 77 }
    ~round:3 ~proposer:2
    ~parent:(Some (Kit.block ~round:2 ~proposer:1
                     ~parent:(Some (Kit.block ~round:1 ~proposer:3 ~parent:None ()))
                     ()))
    ()

let sample_messages () =
  let b = sample_block () in
  let b1 = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  [
    Icc_core.Message.Proposal
      {
        p_block = b;
        p_authenticator = Kit.authenticator kit b;
        p_parent_cert = Some (Kit.notarization kit b1 [ 1; 2; 3 ]);
      };
    Icc_core.Message.Proposal
      {
        p_block = b1;
        p_authenticator = Kit.authenticator kit b1;
        p_parent_cert = None;
      };
    Icc_core.Message.Notarization_share (Kit.notarization_share kit ~signer:2 b1);
    Icc_core.Message.Notarization (Kit.notarization kit b1 [ 1; 3; 4 ]);
    Icc_core.Message.Finalization_share (Kit.finalization_share kit ~signer:4 b1);
    Icc_core.Message.Finalization (Kit.finalization kit b1 [ 2; 3; 4 ]);
    Icc_core.Message.Beacon_share
      {
        b_round = 5;
        b_signer = 3;
        b_share =
          Icc_crypto.Threshold_vuf.sign_share
            kit.Kit.system.Icc_crypto.Keygen.beacon
            (Kit.key kit 3).Icc_crypto.Keygen.beacon_key "beacon text";
      };
  ]

let test_roundtrip_all_variants () =
  List.iteri
    (fun i msg ->
      match Icc_core.Codec.decode (Icc_core.Codec.encode msg) with
      | Some msg' ->
          Alcotest.(check bool)
            (Printf.sprintf "variant %d roundtrips" i)
            true (msg = msg')
      | None -> Alcotest.fail (Printf.sprintf "variant %d failed to decode" i))
    (sample_messages ())

let test_roundtrip_preserves_hashes_and_signatures () =
  let b = sample_block () in
  let msg =
    Icc_core.Message.Proposal
      { p_block = b; p_authenticator = Kit.authenticator kit b; p_parent_cert = None }
  in
  match Icc_core.Codec.decode (Icc_core.Codec.encode msg) with
  | Some (Icc_core.Message.Proposal p) ->
      Alcotest.(check bool) "same hash" true
        (Icc_crypto.Sha256.equal
           (Icc_core.Block.hash p.Icc_core.Message.p_block)
           (Icc_core.Block.hash b));
      (* the decoded authenticator still verifies *)
      Alcotest.(check bool) "authenticator verifies" true
        (Icc_crypto.Schnorr.verify
           kit.Kit.system.Icc_crypto.Keygen.auth_pub.(1)
           (Icc_core.Types.authenticator_text ~round:3 ~proposer:2
              ~block_hash:(Icc_core.Block.hash b))
           p.Icc_core.Message.p_authenticator)
  | _ -> Alcotest.fail "roundtrip failed"

let test_deterministic () =
  List.iter
    (fun msg ->
      Alcotest.(check string) "same bytes"
        (Icc_core.Codec.encode msg) (Icc_core.Codec.encode msg))
    (sample_messages ())

let test_garbage_rejected () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" (String.sub s 0 (min 8 (String.length s))))
        true
        (Icc_core.Codec.decode s = None))
    [
      "";
      "\x00";
      "\xff";
      "\x01short";
      String.make 100 '\x07';
      String.make 10_000 '\xff';
    ]

let test_truncations_rejected () =
  let full = Icc_core.Codec.encode (List.hd (sample_messages ())) in
  for cut = 0 to min 64 (String.length full - 1) do
    Alcotest.(check bool)
      (Printf.sprintf "truncated at %d" cut)
      true
      (Icc_core.Codec.decode (String.sub full 0 cut) = None)
  done;
  (* trailing junk is also rejected *)
  Alcotest.(check bool) "over-long" true
    (Icc_core.Codec.decode (full ^ "x") = None)

let prop_bitflips_never_crash =
  QCheck.Test.make ~name:"codec survives random bit flips" ~count:200
    (QCheck.pair (QCheck.int_bound 6) (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (variant, (pos_seed, bit)) ->
      let msgs = sample_messages () in
      let msg = List.nth msgs (variant mod List.length msgs) in
      let bytes = Bytes.of_string (Icc_core.Codec.encode msg) in
      let pos = pos_seed mod Bytes.length bytes in
      Bytes.set bytes pos
        (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl (bit mod 8))));
      (* decoding flipped bytes either fails or yields some well-formed
         message — it must never raise *)
      match Icc_core.Codec.decode (Bytes.to_string bytes) with
      | Some _ | None -> true)

let prop_random_payload_roundtrip =
  QCheck.Test.make ~name:"codec roundtrips random payloads" ~count:60
    (QCheck.pair QCheck.small_nat (QCheck.list_of_size (QCheck.Gen.int_bound 8) QCheck.printable_string))
    (fun (filler, tags) ->
      let commands =
        List.mapi
          (fun i tag ->
            Icc_core.Types.command ~tag ~cmd_id:i ~cmd_size:(i * 7)
              ~submitted_at:(float_of_int i /. 3.) ())
          tags
      in
      let b =
        Kit.block
          ~payload:{ Icc_core.Types.commands; filler_size = filler }
          ~round:1 ~proposer:1 ~parent:None ()
      in
      let msg =
        Icc_core.Message.Proposal
          {
            p_block = b;
            p_authenticator = Kit.authenticator kit b;
            p_parent_cert = None;
          }
      in
      Icc_core.Codec.decode (Icc_core.Codec.encode msg) = Some msg)

(* --- compact-format properties ----------------------------------------- *)

(* Varint boundary values: 1-byte/2-byte/3-byte/… group edges. *)
let varint_edge =
  QCheck.oneofl
    [ 0; 1; 127; 128; 255; 16383; 16384; 2097151; 1 lsl 30; 1 lsl 40 ]

(* Every compact frame round-trips at varint group boundaries (the
   resync frames carry raw varint triples; the signed frames carry varint
   rounds/ids next to fixed-width digests). *)
let prop_varint_edges_roundtrip =
  QCheck.Test.make ~name:"compact frames roundtrip at varint edges" ~count:100
    (QCheck.pair varint_edge varint_edge) (fun (a, b) ->
      let frames =
        [
          Icc_core.Message.Pool_summary
            { ps_party = a; ps_round = b; ps_kmax = a };
          Icc_core.Message.Pool_request
            { pr_party = b; pr_from = a; pr_upto = b };
        ]
      in
      List.for_all
        (fun msg ->
          Icc_core.Codec.decode (Icc_core.Codec.encode msg) = Some msg)
        frames)

(* A well-formed proposal bundle (parent certificate naming the block's
   parent hash) round-trips through the digest-elided form and saves the
   32 duplicated digest bytes. *)
let test_shared_prefix_digest_elision () =
  let b1 = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  let b2 = Kit.block ~round:2 ~proposer:2 ~parent:(Some b1) () in
  let cert = Kit.notarization kit b1 [ 1; 2; 3 ] in
  let bundle cert =
    Icc_core.Message.Proposal
      {
        p_block = b2;
        p_authenticator = Kit.authenticator kit b2;
        p_parent_cert = Some cert;
      }
  in
  let well_formed = bundle cert in
  (* the same certificate naming another digest: every other field, the
     signatures included, is byte-equal, so the frames differ exactly by
     the digest the well-formed bundle elides *)
  let mismatched =
    bundle { cert with Icc_core.Types.c_block_hash = Icc_core.Block.hash b2 }
  in
  List.iter
    (fun (what, msg) ->
      match Icc_core.Codec.decode (Icc_core.Codec.encode msg) with
      | Some msg' -> Alcotest.(check bool) what true (msg = msg')
      | None -> Alcotest.failf "%s failed to decode" what)
    [
      ("elided bundle roundtrips", well_formed);
      ("mismatched bundle roundtrips", mismatched);
    ];
  Alcotest.(check int) "elision saves exactly the duplicated digest"
    (String.length (Icc_core.Codec.encode well_formed) + 32)
    (String.length (Icc_core.Codec.encode mismatched))

(* Small frames must actually be small: a resync summary is three varints
   plus the tag, nowhere near the 25 bytes of the old fixed-width layout. *)
let test_compactness () =
  let summary =
    Icc_core.Message.Pool_summary { ps_party = 3; ps_round = 40; ps_kmax = 39 }
  in
  Alcotest.(check bool) "summary fits in 4 bytes" true
    (String.length (Icc_core.Codec.encode summary) <= 4);
  let share =
    Icc_core.Message.Notarization_share
      (Kit.notarization_share kit ~signer:2
         (Kit.block ~round:1 ~proposer:1 ~parent:None ()))
  in
  (* tag + 3 small varints + 32-byte digest + signer + signature ints *)
  Alcotest.(check bool) "share frame under 64 bytes" true
    (String.length (Icc_core.Codec.encode share) <= 64)

(* Each value has exactly one encoding: non-canonical varint padding
   ("0x80 0x00" continuation groups encoding zero) is rejected. *)
let test_non_canonical_varint_rejected () =
  (* tag 7 (pool summary), ps_party as padded zero, then two zeros *)
  let padded = "\x07\x80\x00\x00\x00" in
  Alcotest.(check bool) "padded varint rejected" true
    (Icc_core.Codec.decode padded = None);
  let canonical = "\x07\x00\x00\x00" in
  Alcotest.(check bool) "canonical zero accepted" true
    (Icc_core.Codec.decode canonical
    = Some
        (Icc_core.Message.Pool_summary
           { ps_party = 0; ps_round = 0; ps_kmax = 0 }))

(* The 10th varint group holds bit 63 alone.  [Pool_summary {3; 5; 7}] is
   "07 03 05 07"; re-padding the 03 to ten groups whose last one is 0x01,
   0x02 or 0x7e once decoded to the same message, so one message had four
   encodings. *)
let test_tenth_varint_group_rejected () =
  let msg =
    Icc_core.Message.Pool_summary { ps_party = 3; ps_round = 5; ps_kmax = 7 }
  in
  Alcotest.(check string) "encoding" "\x07\x03\x05\x07"
    (Icc_core.Codec.encode msg);
  List.iter
    (fun last ->
      let padded =
        "\x07\x83" ^ String.make 8 '\x80' ^ String.make 1 last ^ "\x05\x07"
      in
      Alcotest.(check bool)
        (Printf.sprintf "tenth group %02x rejected" (Char.code last))
        true
        (Icc_core.Codec.decode padded = None))
    [ '\x01'; '\x02'; '\x7e' ];
  (* nine groups setting bit 62 without bit 63: 2^63 - 1 is no int *)
  Alcotest.(check bool) "bit 62 without bit 63 rejected" true
    (Icc_core.Codec.decode ("\x07" ^ String.make 8 '\xff' ^ "\x7f\x05\x07")
    = None);
  (* a negative int needs all ten groups, and its encoding still decodes *)
  let negative =
    Icc_core.Message.Pool_summary { ps_party = -1; ps_round = min_int; ps_kmax = max_int }
  in
  Alcotest.(check bool) "negative ints roundtrip" true
    (Icc_core.Codec.decode (Icc_core.Codec.encode negative) = Some negative)

(* Encodings to mutate: every variant, plus the resync frames, whose bytes
   are all varints. *)
let mutation_seeds =
  List.map Icc_core.Codec.encode
    (sample_messages ()
    @ [
        Icc_core.Message.Pool_summary
          { ps_party = 3; ps_round = 300; ps_kmax = 7 };
        Icc_core.Message.Pool_request
          { pr_party = 2; pr_from = 1 lsl 20; pr_upto = -5 };
      ])

(* Truncation, splicing two encodings, re-padding the byte at a position
   as a longer varint (continuation bit set, [k] 0x80 groups, then a final
   group), and random bytes behind a valid tag. *)
let mutated_encoding =
  let open QCheck.Gen in
  let seed = oneofl mutation_seeds in
  let cut s = map (fun k -> k mod (String.length s + 1)) nat in
  let truncation =
    seed >>= fun s -> map (fun k -> String.sub s 0 k) (cut s)
  in
  let splice =
    pair seed seed >>= fun (a, b) ->
    map2
      (fun i j -> String.sub a 0 i ^ String.sub b j (String.length b - j))
      (cut a) (cut b)
  in
  let repad =
    seed >>= fun s ->
    let last = oneof [ oneofl [ 0x00; 0x01; 0x02; 0x7e ]; int_bound 0x7f ] in
    map3
      (fun pos k last ->
        let pos = pos mod String.length s in
        String.sub s 0 pos
        ^ String.make 1 (Char.chr (Char.code s.[pos] lor 0x80))
        ^ String.make k '\x80'
        ^ String.make 1 (Char.chr last)
        ^ String.sub s (pos + 1) (String.length s - pos - 1))
      nat (int_bound 8) last
  in
  let random =
    map2
      (fun tag rest -> String.make 1 (Char.chr tag) ^ rest)
      (int_range 1 8)
      (string_size ~gen:char (int_bound 12))
  in
  oneof [ truncation; splice; repad; random ]

let prop_decode_is_canonical =
  QCheck.Test.make ~name:"decoded frames re-encode to their bytes" ~count:1000
    (QCheck.make ~print:String.escaped mutated_encoding)
    (fun s ->
      match Icc_core.Codec.decode s with
      | Some msg -> Icc_core.Codec.encode msg = s
      | None -> true)

let suite =
  [
    Alcotest.test_case "roundtrip variants" `Quick test_roundtrip_all_variants;
    Alcotest.test_case "shared-prefix digest elision" `Quick
      test_shared_prefix_digest_elision;
    Alcotest.test_case "compact frame sizes" `Quick test_compactness;
    Alcotest.test_case "non-canonical varints rejected" `Quick
      test_non_canonical_varint_rejected;
    Alcotest.test_case "tenth varint group rejected" `Quick
      test_tenth_varint_group_rejected;
    QCheck_alcotest.to_alcotest prop_decode_is_canonical;
    QCheck_alcotest.to_alcotest prop_varint_edges_roundtrip;
    Alcotest.test_case "hashes/signatures preserved" `Quick
      test_roundtrip_preserves_hashes_and_signatures;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
    Alcotest.test_case "truncations rejected" `Quick test_truncations_rejected;
    QCheck_alcotest.to_alcotest prop_bitflips_never_crash;
    QCheck_alcotest.to_alcotest prop_random_payload_roundtrip;
  ]
