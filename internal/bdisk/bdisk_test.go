package bdisk

import (
	"testing"

	"bpush/internal/broadcast"
	"bpush/internal/model"
	"bpush/internal/server"
)

func items(ids ...int) []model.ItemID {
	out := make([]model.ItemID, len(ids))
	for i, id := range ids {
		out[i] = model.ItemID(id)
	}
	return out
}

// frequencies counts how many times each item appears in a program.
func frequencies(p broadcast.Program) map[model.ItemID]int {
	out := make(map[model.ItemID]int)
	for _, it := range p {
		out[it]++
	}
	return out
}

// meanSpacing returns the average distance (in slots) between consecutive
// appearances of item in the cyclic program — the expected wait for the
// item is half of this. Returns the program length for items appearing
// once, and 0 for absent items.
func meanSpacing(p broadcast.Program, item model.ItemID) float64 {
	var hits []int
	for i, it := range p {
		if it == item {
			hits = append(hits, i)
		}
	}
	if len(hits) == 0 {
		return 0
	}
	if len(hits) == 1 {
		return float64(len(p))
	}
	total := 0
	for i := 1; i < len(hits); i++ {
		total += hits[i] - hits[i-1]
	}
	total += len(p) - hits[len(hits)-1] + hits[0] // wrap-around gap
	return float64(total) / float64(len(hits))
}

func TestProgramValidation(t *testing.T) {
	tests := []struct {
		name  string
		disks []Disk
	}{
		{"no disks", nil},
		{"zero frequency", []Disk{{Items: items(1), Frequency: 0}}},
		{"empty disk", []Disk{{Items: nil, Frequency: 1}}},
		{"duplicate item", []Disk{
			{Items: items(1, 2), Frequency: 2},
			{Items: items(2, 3), Frequency: 1},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Program(tt.disks); err == nil {
				t.Error("invalid disks accepted")
			}
		})
	}
}

func TestFrequenciesMatchDiskSpeeds(t *testing.T) {
	prog, err := Program([]Disk{
		{Items: items(1, 2), Frequency: 3},
		{Items: items(3, 4, 5, 6, 7, 8), Frequency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	freq := frequencies(prog)
	for _, hot := range items(1, 2) {
		if freq[hot] != 3 {
			t.Errorf("hot item %v appears %d times, want 3", hot, freq[hot])
		}
	}
	for _, cold := range items(3, 4, 5, 6, 7, 8) {
		if freq[cold] < 1 {
			t.Errorf("cold item %v missing from program", cold)
		}
	}
}

func TestTwoDiskCoversDatabase(t *testing.T) {
	prog, err := TwoDisk(20, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	freq := frequencies(prog)
	for i := 1; i <= 20; i++ {
		if freq[model.ItemID(i)] == 0 {
			t.Errorf("item %d missing", i)
		}
	}
	if freq[1] != 4 {
		t.Errorf("hot item appears %d times, want 4", freq[1])
	}
}

func TestTwoDiskValidation(t *testing.T) {
	if _, err := TwoDisk(10, 0, 2); err == nil {
		t.Error("hot=0 accepted")
	}
	if _, err := TwoDisk(10, 10, 2); err == nil {
		t.Error("hot=dbSize accepted")
	}
}

func TestMeanSpacingHotBeatsFlat(t *testing.T) {
	prog, err := TwoDisk(40, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	flatSpacing := 40.0 // flat program: every item once per 40 slots
	hot := meanSpacing(prog, 1)
	if hot >= flatSpacing {
		t.Errorf("hot item mean spacing %.1f >= flat %.1f; fast disk must reduce wait", hot, flatSpacing)
	}
	cold := meanSpacing(prog, 40)
	if cold <= flatSpacing {
		t.Errorf("cold item mean spacing %.1f <= flat %.1f; slow disk must pay", cold, flatSpacing)
	}
}

func TestMeanSpacingEdgeCases(t *testing.T) {
	prog := broadcast.Program{1, 2, 1, 3}
	if got := meanSpacing(prog, 9); got != 0 {
		t.Errorf("absent item spacing = %g, want 0", got)
	}
	if got := meanSpacing(prog, 2); got != 4 {
		t.Errorf("single-appearance spacing = %g, want program length 4", got)
	}
	if got := meanSpacing(prog, 1); got != 2 {
		t.Errorf("item 1 spacing = %g, want 2", got)
	}
}

func TestProgramAssemblesWithServer(t *testing.T) {
	prog, err := TwoDisk(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DBSize: 12, MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := broadcast.Assemble(srv, nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(prog) {
		t.Errorf("becast length %d != program length %d", b.Len(), len(prog))
	}
	// Every item findable at its first position.
	for i := 1; i <= 12; i++ {
		if b.Position(model.ItemID(i)) < 0 {
			t.Errorf("item %d has no position", i)
		}
	}
}

func TestLCM(t *testing.T) {
	tests := []struct{ a, b, want int }{
		{1, 1, 1}, {2, 3, 6}, {4, 6, 12}, {5, 5, 5},
	}
	for _, tt := range tests {
		if got := lcm(tt.a, tt.b); got != tt.want {
			t.Errorf("lcm(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}
