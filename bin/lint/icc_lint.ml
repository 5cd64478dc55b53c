(* The linter binary, kept dependency-light so the [@lint] dune alias
   only has to build Icc_lint and this file:

     icc_lint [--deps DIR]... [PATH|CMT]...

   Paths default to the built lib tree. *)

let () =
  match Icc_lint.Driver.config_of_args (List.tl (Array.to_list Sys.argv)) with
  | Error msg ->
      prerr_endline ("icc-lint: " ^ msg);
      prerr_endline "usage: icc_lint [--deps DIR]... [PATH|CMT]...";
      exit 2
  | Ok config -> exit (Icc_lint.Driver.run config)
