// Command erapid is the E-RAPID simulator's command line: `erapid
// [flags]` runs one simulation, and `erapid sweep|compare|tables|verify`
// regenerate the paper's figures, race the reconfiguration policies,
// print Table 1 and Fig. 3 and check the paper's claims. `erapid
// <subcommand> -h` lists each one's flags; the HTTP job service is
// erapid-serve.
package main

import "repro/internal/cli"

func main() { cli.Main("") }
