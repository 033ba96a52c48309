let create ?probe ?state m ~d =
  let choose loads ~order =
    snd (Pmp_index.Load_index.min_load_subtree loads ~order)
  in
  Repacking.create ?probe ?state m
    ~name:(Printf.sprintf "hybrid(d=%s)" (Realloc.to_string d))
    ~d ~choose
