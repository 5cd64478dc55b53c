(* Clean domain safety: synchronized cells (Atomic), domain-local state
   (Domain.DLS), lock-protected sections (Mutex) and function locals
   produce no findings. *)

let enabled = Atomic.make true
let cache_key = Domain.DLS.new_key (fun () -> Hashtbl.create 8)
let stats_lock = Mutex.create ()

let verify x =
  if Atomic.get enabled then begin
    let t = Domain.DLS.get cache_key in
    Hashtbl.replace t x true;
    Mutex.protect stats_lock (fun () -> x >= 0)
  end
  else begin
    let local = Hashtbl.create 4 in
    Hashtbl.mem local x
  end
[@@icc.domain_entry]
