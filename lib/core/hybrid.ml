let create ?probe ?backend ?state m ~d =
  let choose loads ~order =
    snd (Pmp_index.Load_view.min_max_at_order loads order)
  in
  Repacking.create ?probe ?backend ?state m
    ~name:(Printf.sprintf "hybrid(d=%s)" (Realloc.to_string d))
    ~d ~choose
