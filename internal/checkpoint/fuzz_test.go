package checkpoint

import (
	"errors"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to Decode. A refusal must be
// one of the package's sentinels; an accepted encoding must decode again
// from its own Encode to the same digest and embedded program. Whether a
// hostile core state survives restore is beyond this target.
//
//	go test -fuzz=FuzzCheckpointDecode -fuzztime=2m -fuzzminimizetime=100x -run '^$' ./internal/checkpoint
func FuzzCheckpointDecode(f *testing.F) {
	good := goldenCheckpoint(f).Encode()
	f.Add(good)
	f.Add(good[:12])
	f.Add(good[:len(good)/2])
	f.Add([]byte(Magic))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrNotCheckpoint) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal matches no sentinel: %v", err)
			}
			return
		}
		again, err := Decode(ck.Encode())
		if err != nil {
			t.Fatalf("accepted checkpoint does not decode from its own encoding: %v", err)
		}
		if again.Digest() != ck.Digest() {
			t.Fatalf("digest changed on re-decode: %s, then %s", ck.Digest(), again.Digest())
		}
		if err := again.CompatibleWith(ck.Program()); err != nil {
			t.Fatalf("re-decoded checkpoint is incompatible with its own program: %v", err)
		}
	})
}
