(* Host clocks, statistics and the µs/op timer shared by the benchmark. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let now_s () = now_ns () *. 1e-9

let percentile = Icc_sim.Metrics.percentile
let median l = percentile 50. l

let max_list = List.fold_left Float.max neg_infinity

(* Mean µs per call of [f]: one warm-up batch, then the median of five
   batches of at least [budget /. 5.] seconds each. *)
let us_per_op ?(budget = 0.03) f =
  let batch () =
    let t0 = now_s () in
    let iters = ref 0 in
    while now_s () -. t0 < budget /. 5. do
      f ();
      incr iters
    done;
    (now_s () -. t0) *. 1e6 /. float_of_int !iters
  in
  ignore (batch ());
  median (List.init 5 (fun _ -> batch ()))

(* A growable float buffer for per-event samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.; len = 0 }

  let push t x =
    if t.len = Array.length t.a then begin
      let a = Array.make (2 * t.len) 0. in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let to_list t = Array.to_list (Array.sub t.a 0 t.len)
end
