package cli

import (
	"fmt"

	"repro/internal/claims"
	"repro/internal/core"
)

// verifyCmd runs every quantitative claim of the paper's evaluation
// section against this reproduction and prints PASS/FAIL with the
// measured values. A full run simulates a few dozen 64-node systems and
// takes a couple of minutes; -quick shortens it.
func verifyCmd(args []string) error {
	f := newFlags("erapid verify", core.Config{})
	var s claims.Settings
	f.BoolVar(&s.Quick, "quick", false, "shorter schedules (coarser)")
	f.count(&s.Workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	stop, err := f.parse(args)
	if err != nil {
		return err
	}
	defer stop()

	outs := claims.Verify(s)
	failed := 0
	fmt.Println("Paper claims (Sec. 4.2) vs this reproduction:")
	fmt.Println()
	for _, o := range outs {
		status := "PASS"
		if !o.Pass {
			status = "FAIL"
			failed++
		}
		fmt.Printf("[%s] %s\n", status, o.ID)
		fmt.Printf("       paper:    %s\n", o.Paper)
		if err := o.Err(); err != nil {
			fmt.Printf("       error:    %v\n", err)
		} else {
			fmt.Printf("       measured: %s\n", o.Measured)
		}
		fmt.Println()
	}
	fmt.Printf("%d/%d claims reproduced\n", len(outs)-failed, len(outs))
	if failed > 0 {
		return fmt.Errorf("verify: %d of %d claims failed", failed, len(outs))
	}
	return nil
}
