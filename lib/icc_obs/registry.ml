(* Process-global metrics registry (see registry.mli for the contract).

   Every metric is a plain mutable record: a counter bump on the hot
   instrumentation paths (crypto verifies, pool admissions) is one field
   write.  The runtime is single-domain (DESIGN.md §3.9), so nothing here
   synchronises.

   Registration is idempotent find-or-insert on the global name table.
   All ordering-sensitive output (snapshots, exposition) is sorted by
   name with keyed comparators, so nothing about Hashtbl bucket order
   ever escapes. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_bounds : float array; (* upper bounds, ascending *)
  h_counts : int array; (* length = length h_bounds + 1; last = overflow *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let register name ~make ~cast ~kind =
  match Hashtbl.find_opt registry name with
  | Some m -> (
      match cast m with
      | Some v -> v
      | None ->
          invalid_arg
            ("Registry." ^ kind ^ ": " ^ name ^ " registered as another kind"))
  | None ->
      let m, v = make () in
      Hashtbl.add registry name m;
      v

let counter name =
  register name ~kind:"counter"
    ~cast:(function M_counter c -> Some c | M_gauge _ | M_histogram _ -> None)
    ~make:(fun () ->
      let c = { c_name = name; c_value = 0 } in
      (M_counter c, c))

let inc c = c.c_value <- c.c_value + 1
let add c k = c.c_value <- c.c_value + k
let value c = c.c_value

let gauge name =
  register name ~kind:"gauge"
    ~cast:(function M_gauge g -> Some g | M_counter _ | M_histogram _ -> None)
    ~make:(fun () ->
      let g = { g_name = name; g_value = 0. } in
      (M_gauge g, g))

let set_gauge g v = g.g_value <- v
let gauge_value g = g.g_value

let histogram ?(lo = 1e-6) ?(ratio = 2.) ?(buckets = 36) name =
  if not (lo > 0. && ratio > 1. && buckets >= 1) then
    invalid_arg "Registry.histogram: need lo > 0, ratio > 1, buckets >= 1";
  register name ~kind:"histogram"
    ~cast:(function
      | M_histogram h -> Some h | M_counter _ | M_gauge _ -> None)
    ~make:(fun () ->
      let h_bounds =
        Array.init buckets (fun i -> lo *. (ratio ** float_of_int i))
      in
      let h =
        {
          h_name = name;
          h_bounds;
          h_counts = Array.make (buckets + 1) 0;
          h_count = 0;
          h_sum = 0.;
          h_min = nan;
          h_max = nan;
        }
      in
      (M_histogram h, h))

(* Smallest bucket whose upper bound covers [v]; the scan is over ~36
   floats, and observations overwhelmingly land in the first few buckets
   for sub-millisecond spans. *)
let bucket_index h v =
  let n = Array.length h.h_bounds in
  let i = ref 0 in
  while !i < n && v > h.h_bounds.(!i) do incr i done;
  !i

let observe h v =
  h.h_counts.(bucket_index h v) <- h.h_counts.(bucket_index h v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if Float.is_nan h.h_min || v < h.h_min then h.h_min <- v;
  if Float.is_nan h.h_max || v > h.h_max then h.h_max <- v

let bucket_bounds h = Array.copy h.h_bounds

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
  hs_buckets : (float * int) list;
}

(* Nearest-rank percentile over the bucketed distribution: walk buckets
   until the cumulative count reaches the rank, report that bucket's upper
   bound clamped to the exact observed maximum (so a one-sample histogram
   reports the sample, not its bucket ceiling). *)
let hist_percentile h p =
  if h.h_count = 0 then nan
  else begin
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int h.h_count)))
    in
    let n = Array.length h.h_bounds in
    let cum = ref 0 and i = ref 0 and result = ref h.h_max in
    (try
       while !i <= n do
         cum := !cum + h.h_counts.(!i);
         if !cum >= rank then begin
           result := (if !i < n then Float.min h.h_bounds.(!i) h.h_max else h.h_max);
           raise_notrace Exit
         end;
         incr i
       done
     with Exit -> ());
    !result
  end

let hist_stats h =
  let buckets = ref [] in
  let n = Array.length h.h_bounds in
  for i = n downto 0 do
    if h.h_counts.(i) > 0 then
      let bound = if i < n then h.h_bounds.(i) else infinity in
      buckets := (bound, h.h_counts.(i)) :: !buckets
  done;
  {
    hs_count = h.h_count;
    hs_sum = h.h_sum;
    hs_min = h.h_min;
    hs_max = h.h_max;
    hs_p50 = hist_percentile h 50.;
    hs_p95 = hist_percentile h 95.;
    hs_p99 = hist_percentile h 99.;
    hs_buckets = !buckets;
  }

(* --- registry-wide ------------------------------------------------------ *)

let all_sorted () =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () =
  List.filter_map
    (fun (name, m) ->
      match m with
      | M_counter c -> Some (name, c.c_value)
      | M_gauge _ | M_histogram _ -> None)
    (all_sorted ())

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

let snapshot () =
  List.map
    (fun (name, m) ->
      match m with
      | M_counter c -> (name, Counter c.c_value)
      | M_gauge g -> (name, Gauge g.g_value)
      | M_histogram h -> (name, Histogram (hist_stats h)))
    (all_sorted ())

let reset () =
  List.iter
    (fun (_, m) ->
      match m with
      | M_counter c -> c.c_value <- 0
      | M_gauge g -> g.g_value <- 0.
      | M_histogram h ->
          Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
          h.h_count <- 0;
          h.h_sum <- 0.;
          h.h_min <- nan;
          h.h_max <- nan)
    (all_sorted ())

(* --- Prometheus text exposition ----------------------------------------- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let to_prometheus () =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (name, m) ->
      let pname = sanitize name in
      match m with
      | M_counter c ->
          line "# TYPE %s counter" pname;
          line "%s %d" pname c.c_value
      | M_gauge g ->
          line "# TYPE %s gauge" pname;
          line "%s %g" pname g.g_value
      | M_histogram h ->
          line "# TYPE %s histogram" pname;
          let cum = ref 0 in
          Array.iteri
            (fun i bound ->
              cum := !cum + h.h_counts.(i);
              line "%s_bucket{le=\"%g\"} %d" pname bound !cum)
            h.h_bounds;
          line "%s_bucket{le=\"+Inf\"} %d" pname h.h_count;
          line "%s_sum %g" pname h.h_sum;
          line "%s_count %d" pname h.h_count)
    (all_sorted ());
  Buffer.contents b
