module Sub = Pmp_machine.Submachine

let create ?probe m ~rng ~d =
  let choose _loads ~order =
    let slots = Sub.count_at_order m order in
    Sub.make m ~order ~index:(Pmp_prng.Splitmix64.int rng slots)
  in
  let name = Printf.sprintf "rand-periodic(d=%s)" (Realloc.to_string d) in
  (* the skeleton's export cannot see [rng] *)
  {
    (Repacking.create ?probe m ~name ~d ~choose) with
    Allocator.export = Allocator.no_export name;
  }
