// Command erapid-sweep is `erapid sweep`.
package main

import "repro/internal/cli"

func main() { cli.Main("sweep") }
