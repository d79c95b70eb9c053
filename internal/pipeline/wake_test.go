package pipeline

import (
	"testing"

	"doppelganger/internal/program"
	"doppelganger/internal/secure"
)

// TestMSHRStalledLoadWakesForTaintedStore pins a wake no other event
// covers. Under STT a store with a tainted address has a valid address
// long before it resolves (resolution waits for the taint), and a younger
// load's real access forwards from any older store whose address matches.
// Here load L parks on a full two-entry MSHR file, and the older store S
// it aliases computes its address from a speculative load B. L must wake
// the cycle S's address arrives and forward from it, not sleep until an
// MSHR frees or S resolves; SelfCheck fails the run at the first pass
// that would skip it.
func TestMSHRStalledLoadWakesForTaintedStore(t *testing.T) {
	const (
		xAddr = 0x40000 // the branch's slow operand
		bAddr = 0x30000 // B's word: S's address
		lAddr = 0x20000 // L's address, and S's
	)
	b := program.NewBuilder("mshr-stalled-forward")
	b.InitMem(xAddr, 7)
	b.InitMem(bAddr, lAddr)
	b.InitMem(0x50000, 1)
	b.InitMem(0x60000, 2)
	b.LoadI(1, xAddr)
	b.LoadI(2, lAddr)
	b.LoadI(3, bAddr)
	b.LoadI(4, 0x50000)
	b.LoadI(5, 0x60000)
	b.LoadI(6, 1)
	b.LoadI(9, 99)
	b.Load(8, 1, 0) // X: misses, first MSHR
	for i := 0; i < 5; i++ {
		b.Div(8, 8, 6) // the branch resolves a long while after X's fill
	}
	body := b.NewLabel()
	b.Bne(8, 0, body) // taken as predicted, unresolved until the divides finish
	b.Halt()
	b.Bind(body)
	b.Load(7, 3, 0)  // B: misses, second MSHR; its value is tainted
	b.Load(10, 4, 0) // F1, F2: turned away now, take the MSHRs X and B
	b.Load(11, 5, 0) // free, and hold them past S's address
	b.Store(9, 7, 0) // S: address from B, valid while still tainted
	b.Load(12, 2, 0) // L: untainted, turned away until F1 or F2 fills
	b.Halt()
	p := b.MustBuild()

	cfg := DefaultConfig()
	cfg.Scheme = secure.STT
	cfg.Memory.L1MSHRs = 2
	cfg.SelfCheck = true
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0, 100_000); err != nil {
		t.Fatal(err)
	}
	if got := c.ReadMem(lAddr); got != 99 {
		t.Fatalf("stored word = %d, want 99", got)
	}
	if c.Stats.STLFForwards != 1 || c.hier.RejectedMSHR == 0 {
		t.Errorf("scenario did not play out: %d forwards, %d MSHR rejections", c.Stats.STLFForwards, c.hier.RejectedMSHR)
	}
	if got := c.ArchRegs()[12]; got != 99 {
		t.Errorf("L loaded %d, want the store's 99", got)
	}
}
