package cpu

import (
	"bufio"
	"os"
	"slices"
	"strings"
	"testing"
)

// The CPUID probe must agree with the kernel's own reading of the CPU.
// Linux lists avx2 in /proc/cpuinfo only where the CPU reports AVX2 and
// the OS saves the YMM registers, the same three checks detectAVX2 makes.
// A probe that read a wrong leaf, bit or XCR0 mask would otherwise send
// every AVX2 host to the Go fallbacks, and every test and guard that skips
// the AVX2 path on a host without it would skip it there too.
func TestAVX2ProbeMatchesCPUInfo(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to check the probe against: %v", err)
	}
	defer f.Close()
	var flags []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, list, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no CPU flags")
	}
	if want := slices.Contains(flags, "avx2"); AVX2() != want {
		t.Errorf("AVX2() = %v, but /proc/cpuinfo lists avx2: %v", AVX2(), want)
	}
}
