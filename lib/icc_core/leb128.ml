(* 7 bits per byte, low group first, the top bit set while more follow.
   A negative int sign-extends to bit 63, so it always takes ten bytes. *)

let add_int buf n =
  let v = ref (Int64.of_int n) in
  let continue = ref true in
  while !continue do
    let low = Int64.to_int (Int64.logand !v 0x7fL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char buf (Char.chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done
