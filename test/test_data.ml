(* Data the test executable reads (goldens, compiled fixtures, lib/'s
   .cmt files) is resolved from the executable's own directory, where
   dune copies the rule's deps, so the suite passes from any working
   directory: [dune runtest], or [dune exec test/test_main.exe] from the
   repository root. *)
let path rel = Filename.concat (Filename.dirname Sys.executable_name) rel
