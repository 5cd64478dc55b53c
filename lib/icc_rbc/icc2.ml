(* Protocol ICC2: the ICC0/ICC1 round logic over the erasure-coded reliable
   broadcast of {!Rbc} instead of a gossip sub-layer (paper §1).

   Expected figures versus ICC0 (honest leader, synchrony, network delay
   delta): reciprocal throughput 3·delta (one extra delta for the fragment
   echo) and latency 4·delta; per-party dissemination bits O(S) for blocks
   of size S = Ω(n·lambda·log n). *)

let transport () : Icc_core.Runner.transport =
 fun ctx ->
  let rbc = Rbc.create ctx in
  {
    Icc_core.Runner.tx_broadcast = (fun ~src msg -> Rbc.tx_broadcast rbc ~src msg);
    tx_unicast = (fun ~src ~dst msg -> Rbc.tx_unicast rbc ~src ~dst msg);
  }

let run (scenario : Icc_core.Runner.scenario) =
  Icc_core.Runner.run
    { scenario with Icc_core.Runner.transport = Some (transport ()) }
