type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }
let state t = t.state
let of_state state = { state }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next_int64 t }

let bits30 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix64.int: bound <= 0";
  if bound <= 1 lsl 30 then begin
    (* rejection sampling on 30 bits to avoid modulo bias *)
    let mask = Pmp_util.Pow2.round_up_pow2 bound - 1 in
    let rec draw () =
      let v = bits30 t land mask in
      if v < bound then v else draw ()
    in
    draw ()
  end
  else begin
    (* wide bound: use 62 bits *)
    let rec draw () =
      let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
      let r = v mod bound in
      if v - r <= max_int - bound + 1 then r else draw ()
    in
    draw ()
  end

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 *. bound (* 2^53 *)

let bool t = Int64.compare (next_int64 t) 0L < 0

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p
