(* Icc_obs — metrics registry, span profiler, profile renderer and the
   JSON codec.

   The registry is process-global, so every test uses its own metric
   names; profiler tests run under [with_profiler], which guarantees the
   toggle ends up off and the recorded data dropped whatever happens. *)

module Registry = Icc_obs.Registry
module Profile = Icc_obs.Profile
module Json = Icc_obs.Json

let with_profiler f =
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    (fun () ->
      Profile.reset ();
      Profile.set_enabled true;
      f ())

(* ------------------------------------------------------------ registry *)

let test_counter_basics () =
  let c = Registry.counter "t_obs_counter_basics" in
  Alcotest.(check int) "starts at zero" 0 (Registry.value c);
  Registry.inc c;
  Registry.inc c;
  Registry.add c 40;
  Alcotest.(check int) "inc/add accumulate" 42 (Registry.value c);
  (* registration is idempotent: same name yields the same cell *)
  let c' = Registry.counter "t_obs_counter_basics" in
  Registry.inc c';
  Alcotest.(check int) "same name, same counter" 43 (Registry.value c)

let test_registry_snapshot_and_reset () =
  let c = Registry.counter "t_obs_reset_c" in
  Registry.add c 7;
  Alcotest.(check (list (pair string int)))
    "counters () lists it"
    [ ("t_obs_reset_c", 7) ]
    (List.filter
       (fun (name, _) -> String.equal name "t_obs_reset_c")
       (Registry.counters ()));
  Registry.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Registry.value c);
  Alcotest.(check (option int))
    "still registered after reset" (Some 0)
    (List.assoc_opt "t_obs_reset_c" (Registry.counters ()))

let test_prometheus_exposition () =
  let c = Registry.counter "t_obs_prom-c" (* '-' must be sanitized *) in
  Registry.add c 3;
  let text = Registry.to_prometheus () in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i =
      i + n <= m && (String.equal (String.sub text i n) needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "counter line" true (contains "\nt_obs_prom_c 3\n");
  Alcotest.(check bool) "counter TYPE" true
    (contains "# TYPE t_obs_prom_c counter\n")

(* ------------------------------------------------------------ profiler *)

let test_span_disabled_is_transparent () =
  Profile.set_enabled false;
  Profile.reset ();
  let r = Profile.span "t_obs.off" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result returned" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Profile.stats ()))

let test_span_nesting_and_folding () =
  with_profiler (fun () ->
      let r =
        Profile.span "t_obs.outer" (fun () ->
            Profile.span "t_obs.inner" (fun () -> ());
            Profile.span "t_obs.inner" (fun () -> ());
            "done")
      in
      Alcotest.(check string) "result flows through" "done" r;
      let stat name =
        match
          List.find_opt (fun s -> String.equal s.Profile.sp_name name)
            (Profile.stats ())
        with
        | Some s -> s
        | None -> Alcotest.failf "span %s not recorded" name
      in
      let outer = stat "t_obs.outer" and inner = stat "t_obs.inner" in
      Alcotest.(check int) "outer count" 1 outer.Profile.sp_count;
      Alcotest.(check int) "inner count" 2 inner.Profile.sp_count;
      Alcotest.(check bool) "outer total covers inner" true
        (outer.Profile.sp_total_s >= inner.Profile.sp_total_s);
      Alcotest.(check bool) "self excludes children" true
        (outer.Profile.sp_self_s <= outer.Profile.sp_total_s);
      (* folded view has the stacked path, not just leaf names *)
      let paths = List.map (fun (p, _, _) -> p) (Profile.folded ()) in
      Alcotest.(check bool) "folded path outer;inner" true
        (List.mem "t_obs.outer;t_obs.inner" paths);
      Alcotest.(check bool) "folded path outer" true
        (List.mem "t_obs.outer" paths);
      (* folded_lines is 'path space integer' per line *)
      String.split_on_char '\n' (Profile.folded_lines ())
      |> List.iter (fun line ->
             if String.length line > 0 then
               match String.rindex_opt line ' ' with
               | None -> Alcotest.failf "no separator in %S" line
               | Some i ->
                   let count =
                     String.sub line (i + 1) (String.length line - i - 1)
                   in
                   Alcotest.(check bool)
                     (Printf.sprintf "numeric self-us in %S" line)
                     true
                     (Option.is_some (int_of_string_opt count))))

let test_span_exception_unwinds () =
  with_profiler (fun () ->
      (try
         Profile.span "t_obs.raiser" (fun () -> failwith "boom")
       with Failure _ -> ());
      (* the stack unwound: a new top-level span nests under nothing *)
      Profile.span "t_obs.after" (fun () -> ());
      let paths = List.map (fun (p, _, _) -> p) (Profile.folded ()) in
      Alcotest.(check bool) "raising span recorded" true
        (List.mem "t_obs.raiser" paths);
      Alcotest.(check bool) "next span is top-level" true
        (List.mem "t_obs.after" paths);
      Alcotest.(check bool) "not nested under the raiser" false
        (List.mem "t_obs.raiser;t_obs.after" paths))

let test_context_attribution () =
  with_profiler (fun () ->
      Profile.set_round 3;
      Profile.set_party 7;
      Profile.span "t_obs.ctx" (fun () -> ());
      Profile.set_round 4;
      Profile.span "t_obs.ctx" (fun () -> ());
      let rounds = List.map fst (Profile.by_round ()) in
      Alcotest.(check (list int)) "rounds charged" [ 3; 4 ] rounds;
      let parties = List.map fst (Profile.by_party ()) in
      Alcotest.(check (list int)) "party charged" [ 7 ] parties;
      match List.assoc_opt 3 (Profile.by_round ()) with
      | Some [ (name, self) ] ->
          Alcotest.(check string) "span name in context" "t_obs.ctx" name;
          Alcotest.(check bool) "self-time non-negative" true (self >= 0.)
      | _ -> Alcotest.fail "round 3 should hold exactly the one span")

(* ------------------------------- Metrics memoized percentile view ------ *)

let test_latency_percentile_invalidation () =
  let m = Icc_sim.Metrics.create 4 in
  (* one decided round per latency: proposed at 0, decided at [dt] *)
  let round = ref 0 in
  let latency dt =
    incr round;
    let round = !round in
    Icc_sim.Metrics.observe m ~time:0. (Icc_sim.Trace.Propose { party = 1; round });
    Icc_sim.Metrics.observe m ~time:dt
      (Icc_sim.Trace.Block_decided { round; block = "ab" })
  in
  Alcotest.(check bool) "empty distribution is nan" true
    (Float.is_nan (Icc_sim.Metrics.latency_percentile m 50.));
  latency 3.0;
  latency 1.0;
  latency 2.0;
  Alcotest.(check (float 0.)) "p50 of {1,2,3}" 2.0
    (Icc_sim.Metrics.latency_percentile m 50.);
  Alcotest.(check (float 0.)) "p100 of {1,2,3}" 3.0
    (Icc_sim.Metrics.latency_percentile m 100.);
  (* the second query hit the memoized view; a new latency must invalidate it *)
  latency 10.0;
  latency 11.0;
  Alcotest.(check (float 0.)) "p100 sees the new maximum" 11.0
    (Icc_sim.Metrics.latency_percentile m 100.);
  Alcotest.(check (float 0.)) "p50 re-sorted over 5 samples" 3.0
    (Icc_sim.Metrics.latency_percentile m 50.)

(* ------------------------------------------------------------ renderer *)

let stat sp_name sp_count total_us self_us =
  {
    Profile.sp_name;
    sp_count;
    sp_total_s = float_of_int total_us /. 1e6;
    sp_self_s = float_of_int self_us /. 1e6;
  }

let synthetic =
  {
    Profile.spans =
      [
        stat "crypto.verify" 4 900 900;
        stat "engine.dispatch" 10 1500 300;
        stat "net.transmit" 6 200 200;
        stat "pool.admit" 3 100 100;
      ];
    counters = [ ("schnorr_verifies", 4); ("multi_exps", 0) ];
    rounds =
      [
        (1, [ ("crypto.verify", 0.0009); ("pool.admit", 0.0001) ]);
        (2, [ ("net.transmit", 0.0005) ]);
      ];
    parties = [ (1, [ ("crypto.verify", 0.0012) ]) ];
  }

let test_render_top () =
  Alcotest.(check string) "top 2: two rows, the rest in (other x2)"
    {|profile (host wall-clock, self-time descending):
  span                              count     total-us      self-us  share
  crypto.verify                         4          900          900  60.0%
  engine.dispatch                      10         1500          300  20.0%
  (other x2)                            9          300          300  20.0%

counters:
  schnorr_verifies                        4

per-round self-us (0 = outside any round):
      1       1000  ######################################## crypto.verify
      2        500  ####################                     net.transmit

per-party self-us (0 = outside any party):
      1       1200
|}
    (Profile.render ~top:2 synthetic)

let test_render_all_rows () =
  Alcotest.(check string) "top 0: every row, no other-row"
    {|profile (host wall-clock, self-time descending):
  span                              count     total-us      self-us  share
  crypto.verify                         4          900          900  60.0%
  engine.dispatch                      10         1500          300  20.0%
  net.transmit                          6          200          200  13.3%
  pool.admit                            3          100          100   6.7%

counters:
  schnorr_verifies                        4
|}
    (Profile.render ~top:0 { synthetic with rounds = []; parties = [] })

(* ---------------------------------------------------------------- json *)

(* Values the writer renders exactly: ints of any size and sign, floats
   exact at six decimals, strings over every byte 0x00-0x7f, nesting. *)
let gen_json =
  QCheck.Gen.(
    let str = string_size ~gen:(char_range '\000' '\127') (int_bound 12) in
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) int;
          map
            (fun k -> Json.Float (float_of_int k /. 1e6))
            (int_range (-10_000_000_000) 10_000_000_000);
          map (fun s -> Json.String s) str;
        ]
    in
    sized_size (int_bound 4)
      (fix (fun self depth ->
           if depth = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map
                     (fun l -> Json.Array l)
                     (list_size (int_bound 4) (self (depth - 1))) );
                 ( 1,
                   map
                     (fun l -> Json.Object l)
                     (list_size (int_bound 4) (pair str (self (depth - 1)))) );
               ])))

let prop_json_round_trip =
  QCheck.Test.make ~name:"json: parse inverts to_string" ~count:1000
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let test_json_units () =
  let every_byte = String.init 128 Char.chr in
  Alcotest.(check bool) "every byte 0x00-0x7f round-trips" true
    (Json.parse (Json.to_string (Json.String every_byte))
    = Ok (Json.String every_byte));
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h writes null" f) "null"
        (Json.to_string (Json.Float f)))
    [ nan; infinity; neg_infinity ];
  (* Control characters must not reach a string literal raw. *)
  Alcotest.(check string) "newline and \\x01 escaped" {|"a\nb\u0001\"\\"|}
    (Json.to_string (Json.String "a\nb\x01\"\\"));
  Alcotest.(check string) "six-decimal floats, compact" {|{"a":[1,-2.500000,"x\n"]}|}
    (Json.to_string
       (Json.Object
          [ ("a", Json.Array [ Json.Int 1; Json.Float (-2.5); Json.String "x\n" ]) ]));
  Alcotest.(check bool) "int vs float lexeme" true
    (Json.parse "[3,3.0,-7]"
    = Ok (Json.Array [ Json.Int 3; Json.Float 3.; Json.Int (-7) ]));
  Alcotest.(check bool) "an int lexeme past max_int reads as a float" true
    (Json.parse "92233720368547758070" = Ok (Json.Float 92233720368547758070.));
  Alcotest.(check bool) "whitespace and escapes" true
    (Json.parse " {\"k\" :\t[true, false,null],\n\"s\":\"\\u0041\\/\\t\"} "
    = Ok
        (Json.Object
           [
             ("k", Json.Array [ Json.Bool true; Json.Bool false; Json.Null ]);
             ("s", Json.String "A/\t");
           ]));
  List.iter
    (fun (text, msg) ->
      Alcotest.(check (result reject string)) text (Error msg)
        (Result.map ignore (Json.parse text)))
    [
      ({|{"a":1} x|}, "trailing garbage at byte 8");
      ({|["abc|}, "unterminated string at byte 5");
      ({|"a\qb"|}, "bad escape at byte 3");
      ("", "expected a value at byte 0");
      ({|{"a" 1}|}, "expected ':' at byte 5");
      ({|[1,2|}, "expected ',' or ']' at byte 4");
    ]

let suite =
  [
    Alcotest.test_case "registry: counter basics" `Quick test_counter_basics;
    Alcotest.test_case "registry: snapshot and reset" `Quick
      test_registry_snapshot_and_reset;
    Alcotest.test_case "registry: prometheus exposition" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "profiler: disabled span is transparent" `Quick
      test_span_disabled_is_transparent;
    Alcotest.test_case "profiler: nesting and folded stacks" `Quick
      test_span_nesting_and_folding;
    Alcotest.test_case "profiler: exception unwinds the stack" `Quick
      test_span_exception_unwinds;
    Alcotest.test_case "profiler: per-round/per-party attribution" `Quick
      test_context_attribution;
    Alcotest.test_case "metrics: latency percentile memo invalidation" `Quick
      test_latency_percentile_invalidation;
    Alcotest.test_case "render: top rows and the (other) row" `Quick
      test_render_top;
    Alcotest.test_case "render: every row at top 0" `Quick test_render_all_rows;
    Alcotest.test_case "json: writer and parser cases" `Quick test_json_units;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
  ]
