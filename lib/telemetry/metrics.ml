module Counter = struct
  type t = { mutable value : int }

  let make () = { value = 0 }
  let inc t n = t.value <- t.value + n
  let incr t = inc t 1
  let value t = t.value
end

module Gauge = struct
  type t = { mutable value : float; mutable max_seen : float }

  let make () = { value = 0.0; max_seen = neg_infinity }

  let set t v =
    t.value <- v;
    if v > t.max_seen then t.max_seen <- v

  let value t = t.value
  let max_seen t = if t.max_seen = neg_infinity then 0.0 else t.max_seen
end

(* Shared with the quantile estimator below and with every consumer
   that pins geometric buckets (scenario verdicts, bench gates): the
   smallest boundary [start * ratio^k] at or above [x]. Boundaries are
   products of exactly-representable constants, so comparisons against
   them are bit-stable across libm implementations; the 1e-9 slack
   forgives one ulp of drift in [x] itself. *)
let bucket_ceil ~start ~ratio x =
  if x <= start then start
  else begin
    let rec up b = if x <= b *. (1.0 +. 1e-9) then b else up (b *. ratio) in
    up start
  end

(* Quantile from Prometheus-style cumulative buckets. The covering
   bucket is the first whose cumulative count reaches the rank; inside
   it we interpolate {e geometrically} — log-spaced buckets spread
   their mass closer to log-uniform than uniform, so the log-scale
   midpoint is the honest point estimate. The first bucket has no
   lower bound (report its upper bound, conservative) and the overflow
   bucket no upper (interpolate towards [max_seen]). Non-positive
   bounds fall back to linear interpolation. *)
let quantile_of_buckets buckets ~max_seen ~count q =
  if count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = q *. float_of_int count in
    let interp lower upper frac =
      if lower > 0.0 && upper > lower then lower *. ((upper /. lower) ** frac)
      else lower +. ((upper -. lower) *. frac)
    in
    let rec go lower below = function
      | [] -> max_seen
      | (upper, cum) :: rest ->
          if float_of_int cum >= rank && cum > below then begin
            let in_bucket = cum - below in
            let frac =
              (rank -. float_of_int below) /. float_of_int in_bucket
            in
            (* nothing observed lies above max_seen, so the covering
               bucket ends there *)
            let hi = Float.min upper max_seen in
            match lower with
            | Some lo when hi > lo -> Float.min hi (interp lo hi frac)
            | Some _ | None -> hi
          end
          else go (Some upper) cum rest
    in
    go None 0 buckets
  end

module Histogram = struct
  type t = {
    bounds : float array;
    counts : int array;  (* one per bound plus the +Inf overflow *)
    mutable count : int;
    mutable sum : float;
    mutable max_seen : float;
  }

  let make bounds =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Histogram.make: no buckets";
    for i = 1 to n - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Histogram.make: bounds not strictly increasing"
    done;
    {
      bounds = Array.copy bounds;
      counts = Array.make (n + 1) 0;
      count = 0;
      sum = 0.0;
      max_seen = neg_infinity;
    }

  let observe t v =
    let n = Array.length t.bounds in
    let rec bucket i = if i >= n || v <= t.bounds.(i) then i else bucket (i + 1) in
    t.counts.(bucket 0) <- t.counts.(bucket 0) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v > t.max_seen then t.max_seen <- v

  let count t = t.count
  let sum t = t.sum
  let max_seen t = if t.max_seen = neg_infinity then 0.0 else t.max_seen

  let buckets t =
    let acc = ref 0 in
    let finite =
      Array.to_list
        (Array.mapi
           (fun i b ->
             acc := !acc + t.counts.(i);
             (b, !acc))
           t.bounds)
    in
    finite @ [ (infinity, t.count) ]

  let quantile t q =
    quantile_of_buckets (buckets t) ~max_seen:(max_seen t) ~count:t.count q
end

module Span = struct
  type t = { mutable total : float; mutable count : int; mutable max_seen : float }

  let make () = { total = 0.0; count = 0; max_seen = 0.0 }

  let add t seconds =
    t.total <- t.total +. seconds;
    t.count <- t.count + 1;
    if seconds > t.max_seen then t.max_seen <- seconds

  let count t = t.count
  let total t = t.total
  let max_seen t = t.max_seen
end

module Ratio_window = struct
  type t = { ring : float array; mutable n : int  (** ratios ever pushed *) }

  let make () = { ring = Array.make 1024 0.0; n = 0 }

  (* int arguments and a float-array store: nothing is boxed *)
  let push t ~max_load ~optimal =
    if optimal > 0 then begin
      t.ring.(t.n mod Array.length t.ring) <-
        float_of_int max_load /. float_of_int optimal;
      t.n <- t.n + 1
    end

  let p99 t =
    let n = min t.n (Array.length t.ring) in
    if n = 0 then 0.0
    else begin
      let sorted = Array.sub t.ring 0 n in
      Array.sort Float.compare sorted;
      sorted.(min (n - 1) (int_of_float (float_of_int n *. 0.99)))
    end
end

let log_bounds ~start ~ratio ~count =
  if start <= 0.0 || ratio <= 1.0 || count <= 0 then
    invalid_arg "Metrics.log_bounds: need start > 0, ratio > 1, count > 0";
  Array.init count (fun i -> start *. (ratio ** float_of_int i))

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Histogram.t
  | I_span of Span.t

(* Prometheus label-value escaping: backslash, double quote and
   newline are the three characters the text format requires escaped
   inside a quoted label value. *)
let escape_label v =
  let plain = ref true in
  String.iter
    (fun c -> match c with '\\' | '"' | '\n' -> plain := false | _ -> ())
    v;
  if !plain then v
  else begin
    let buf = Buffer.create (String.length v + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf
  end

let render_labels = function
  | [] -> ""
  | kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label v ^ "\"") kvs)
      ^ "}"

module Registry = struct
  type entry = {
    name : string;
    labels : (string * string) list;
    help : string;
    inst : instrument;
  }

  type t = { mutable entries : entry list }
  (* kept newest-first; [entries] reverses *)

  let create () = { entries = [] }

  let register t name labels help inst =
    if List.exists (fun e -> e.name = name && e.labels = labels) t.entries
    then
      invalid_arg
        (Printf.sprintf "Registry: duplicate instrument %S%s" name
           (render_labels labels));
    t.entries <- { name; labels; help; inst } :: t.entries

  let counter t ?(labels = []) ?(help = "") name =
    let c = Counter.make () in
    register t name labels help (I_counter c);
    c

  let gauge t ?(labels = []) ?(help = "") name =
    let g = Gauge.make () in
    register t name labels help (I_gauge g);
    g

  let histogram t ?(labels = []) ?(help = "") name bounds =
    let h = Histogram.make bounds in
    register t name labels help (I_histogram h);
    h

  let span t ?(labels = []) ?(help = "") name =
    let s = Span.make () in
    register t name labels help (I_span s);
    s

  let entries t =
    List.rev_map (fun e -> (e.name, e.labels, e.help, e.inst)) t.entries
end

(* Prometheus floats: integers render bare, everything else compactly
   but deterministically. *)
let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let fmt_bound b = if b = infinity then "+Inf" else fmt_float b

let prometheus reg =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  (* HELP/TYPE go out once per metric name, on its first occurrence;
     labelled series of the same name then follow in registration
     order, which keeps the dump byte-stable run to run. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, labels, help, inst) ->
      let first = not (Hashtbl.mem seen name) in
      if first then Hashtbl.add seen name ();
      let lbl = render_labels labels in
      if first && help <> "" then line "# HELP %s %s" name help;
      match inst with
      | I_counter c ->
          if first then line "# TYPE %s counter" name;
          line "%s%s %d" name lbl (Counter.value c)
      | I_gauge g ->
          if first then line "# TYPE %s gauge" name;
          line "%s%s %s" name lbl (fmt_float (Gauge.value g));
          line "%s_max%s %s" name lbl (fmt_float (Gauge.max_seen g))
      | I_histogram h ->
          if first then line "# TYPE %s histogram" name;
          List.iter
            (fun (le, cum) ->
              line "%s_bucket%s %d" name
                (render_labels (labels @ [ ("le", fmt_bound le) ]))
                cum)
            (Histogram.buckets h);
          line "%s_sum%s %s" name lbl (fmt_float (Histogram.sum h));
          line "%s_count%s %d" name lbl (Histogram.count h)
      | I_span s ->
          if first then line "# TYPE %s summary" name;
          line "%s_sum%s %s" name lbl (fmt_float (Span.total s));
          line "%s_count%s %d" name lbl (Span.count s);
          line "%s_max%s %s" name lbl (fmt_float (Span.max_seen s)))
    (Registry.entries reg);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* merging per-shard snapshots                                         *)

(* One parsed sample line: [name], its labels in order, and the value
   still as the original string (re-rendering a lone contributor would
   risk changing bytes). *)
type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : string;
}

(* Parse [name{k="v",...} value] or [name value], unescaping label
   values; [None] for comments, blank lines, or anything that does not
   scan (passed through). A value never holds a space, so the last one
   ends the series even when a label value holds spaces. *)
let parse_sample line =
  let n = String.length line in
  if n = 0 || line.[0] = '#' then None
  else begin
    match String.rindex_opt line ' ' with
    | None -> None
    | Some sp -> (
        let series = String.sub line 0 sp in
        let value = String.sub line (sp + 1) (n - sp - 1) in
        match String.index_opt series '{' with
        | None -> Some { s_name = series; s_labels = []; s_value = value }
        | Some lb when series.[String.length series - 1] = '}' ->
            let body =
              String.sub series (lb + 1) (String.length series - lb - 2)
            in
            (* split on commas outside quoted values (values may hold
               escaped quotes) *)
            let labels = ref [] in
            let ok = ref true in
            let i = ref 0 in
            let len = String.length body in
            while !ok && !i < len do
              match String.index_from_opt body !i '=' with
              | None -> ok := false
              | Some eq when eq + 1 >= len || body.[eq + 1] <> '"' ->
                  ok := false
              | Some eq ->
                  let key = String.sub body !i (eq - !i) in
                  let v = Buffer.create 16 in
                  let j = ref (eq + 2) in
                  let fin = ref (-1) in
                  while !fin < 0 && !j < len do
                    (match body.[!j] with
                    | '\\' when !j + 1 < len ->
                        incr j;
                        Buffer.add_char v
                          (if body.[!j] = 'n' then '\n' else body.[!j])
                    | '"' -> fin := !j
                    | c -> Buffer.add_char v c);
                    incr j
                  done;
                  if !fin < 0 then ok := false
                  else begin
                    labels := (key, Buffer.contents v) :: !labels;
                    i := if !fin + 1 < len && body.[!fin + 1] = ',' then !fin + 2
                         else len
                  end
            done;
            if !ok then
              Some
                {
                  s_name = String.sub series 0 lb;
                  s_labels = List.rev !labels;
                  s_value = value;
                }
            else None
        | Some _ -> None)
  end

let render_sample s =
  s.s_name ^ render_labels s.s_labels ^ " " ^ s.s_value

let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let has_prefix ~prefix s =
  let lp = String.length prefix and l = String.length s in
  l >= lp && String.sub s 0 lp = prefix

let default_keep_prefixes = [ "pmpd_shard_"; "fed_shard_" ]

let merge_prometheus ?(strip_label = "shard")
    ?(keep_prefixes = default_keep_prefixes) ?(max_names = []) dumps =
  match dumps with
  | [] -> ""
  | [ d ] -> d
  | first :: _ ->
      let split d =
        (* drop one trailing empty line so zip lengths agree; the dump
           always ends in a newline *)
        match List.rev (String.split_on_char '\n' d) with
        | "" :: rest -> List.rev rest
        | lines -> List.rev lines
      in
      let all = List.map split dumps in
      let same_length =
        match all with
        | [] -> true
        | l0 :: rest ->
            let n = List.length l0 in
            List.for_all (fun l -> List.length l = n) rest
      in
      if not same_length then
        (* shapes diverged (should not happen between same-shaped
           shard registries): degrade to concatenation rather than
           lose data *)
        String.concat "" dumps
      else begin
        let buf = Buffer.create (String.length first * 2) in
        let emit l =
          Buffer.add_string buf l;
          Buffer.add_char buf '\n'
        in
        let rows = List.map Array.of_list all in
        let n = match rows with r :: _ -> Array.length r | [] -> 0 in
        for i = 0 to n - 1 do
          let lines = List.map (fun r -> r.(i)) rows in
          let line0 = List.hd lines in
          match parse_sample line0 with
          | None -> emit line0 (* comment: identical across shards *)
          | Some s0
            when List.exists
                   (fun prefix -> has_prefix ~prefix s0.s_name)
                   keep_prefixes ->
              (* per-shard series stay per-shard, in shard order *)
              List.iter emit lines
          | Some s0 -> (
              let stripped =
                List.map
                  (fun l ->
                    match parse_sample l with
                    | Some s ->
                        Some
                          { s with s_labels =
                              List.filter
                                (fun (k, _) -> k <> strip_label)
                                s.s_labels }
                    | None -> None)
                  lines
              in
              let agree =
                List.for_all
                  (function
                    | Some s ->
                        s.s_name = s0.s_name
                        && s.s_labels
                           = List.filter
                               (fun (k, _) -> k <> strip_label)
                               s0.s_labels
                    | None -> false)
                  stripped
              in
              if not agree then List.iter emit lines
              else begin
                let values =
                  List.filter_map
                    (function
                      | Some s -> float_of_string_opt s.s_value
                      | None -> None)
                    stripped
                in
                if List.length values <> List.length lines then
                  List.iter emit lines
                else begin
                  let by_max =
                    has_suffix ~suffix:"_max" s0.s_name
                    || List.mem s0.s_name max_names
                  in
                  let merged =
                    List.fold_left
                      (if by_max then Float.max else ( +. ))
                      (if by_max then neg_infinity else 0.0)
                      values
                  in
                  let base =
                    match stripped with Some s :: _ -> s | _ -> assert false
                  in
                  emit (render_sample { base with s_value = fmt_float merged })
                end
              end)
        done;
        Buffer.contents buf
      end

(* ------------------------------------------------------------------ *)
(* reading a dump back                                                 *)

module Dump = struct
  type sample = {
    name : string;
    labels : (string * string) list;
    value : float;
  }

  let samples dump =
    List.filter_map
      (fun line ->
        match parse_sample line with
        | Some s ->
            Option.map
              (fun value -> { name = s.s_name; labels = s.s_labels; value })
              (float_of_string_opt s.s_value)
        | None -> None)
      (String.split_on_char '\n' dump)

  let matches ~labels name s =
    s.name = name && List.for_all (fun l -> List.mem l s.labels) labels

  let value ?(labels = []) dump name =
    List.find_map
      (fun s -> if matches ~labels name s then Some s.value else None)
      (samples dump)

  let buckets ?(labels = []) dump name =
    List.filter_map
      (fun s ->
        if matches ~labels (name ^ "_bucket") s then
          Option.map
            (fun le -> (le, int_of_float s.value))
            (Option.bind (List.assoc_opt "le" s.labels) float_of_string_opt)
        else None)
      (samples dump)

  (* Bucket counts are cumulative counters, so their pointwise
     difference is the histogram of exactly the traffic in between. *)
  let quantile ?labels ~before ~after name q =
    let b0 = buckets ?labels before name in
    let delta =
      List.map
        (fun (u, c1) ->
          (u, max 0 (c1 - Option.value ~default:0 (List.assoc_opt u b0))))
        (buckets ?labels after name)
    in
    match List.rev delta with
    | (_, total) :: _ when total > 0 ->
        let max_seen =
          List.fold_left
            (fun acc (u, c) -> if Float.is_finite u && c > 0 then u else acc)
            0.0 delta
        in
        Some (quantile_of_buckets delta ~max_seen ~count:total q, total)
    | _ -> None
end
