// Command erapid-serve runs the simulator as an HTTP job service (see
// internal/cli's serveCmd for the API and its flags).
package main

import "repro/internal/cli"

func main() { cli.Serve() }
