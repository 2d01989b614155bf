package prom

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"plum/internal/obs"
)

// Format renders samples in the exposition format the daemon serves,
// labels sorted by name: the other half of the round trip.
func Format(w io.Writer, samples []Sample) error {
	for _, s := range samples {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString(s.Name)
		if len(keys) > 0 {
			b.WriteByte('{')
			for i, k := range keys {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s=%q", k, s.Labels[k])
			}
			b.WriteByte('}')
		}
		fmt.Fprintf(&b, " %s\n", strconv.FormatFloat(s.Value, 'g', -1, 64))
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func TestRoundTrip(t *testing.T) {
	in := []Sample{
		{Name: "plum_engine_blocks_total", Labels: map[string]string{}, Value: 123456789},
		{Name: "plum_msg_messages_total", Labels: map[string]string{"class": "user"}, Value: 42},
		{Name: "plum_msg_pool_buffers_total", Labels: map[string]string{"class": "64", "result": "hit"}, Value: 7},
		{Name: "odd_label", Labels: map[string]string{"v": `a,b="c"\d`}, Value: 0.125},
		{Name: "plum_world_wall_seconds_bucket", Labels: map[string]string{"le": "+Inf"}, Value: 3},
	}
	var buf bytes.Buffer
	if err := Format(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Parse(strings.NewReader("# TYPE x counter\n\n" + buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed samples:\n in  %+v\n out %+v", in, out)
	}
	var again bytes.Buffer
	if err := Format(&again, out); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Fatalf("re-rendered text differs:\n%s\nvs\n%s", again.String(), buf.String())
	}
}

// The parser reads the daemon's own exposition: every counter, gauge,
// and histogram series its registry writes comes back with its value.
func TestParsesRegistryExposition(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("plum_msg_messages_total", "class", "user").Add(42)
	r.Counter("plum_msg_messages_total", "class", "collective").Add(7)
	r.Counter("plum_msg_pool_buffers_total", "result", "hit", "class", "64").Add(5)
	r.Gauge("plum_msg_mailbox_highwater").Set(9)
	r.Histogram("plum_world_wall_seconds", []float64{0.5, 1}).Observe(0.75)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{"plum_msg_messages_total", map[string]string{"class": "user"}, 42},
		{"plum_msg_messages_total", nil, 49},
		{"plum_msg_pool_buffers_total", map[string]string{"result": "hit", "class": "64"}, 5},
		{"plum_msg_mailbox_highwater", nil, 9},
		{"plum_world_wall_seconds_count", nil, 1},
		{"plum_world_wall_seconds_sum", nil, 0.75},
	} {
		if got := Sum(s, c.name, c.match); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.match, got, c.want)
		}
	}
	var again bytes.Buffer
	if err := Format(&again, s); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&again)
	if err != nil || !reflect.DeepEqual(back, s) {
		t.Fatalf("re-parse of the rendered samples differs (err %v)", err)
	}
}

func TestSumFiltersByLabel(t *testing.T) {
	text := `# TYPE plum_msg_pool_buffers_total counter
plum_msg_pool_buffers_total{class="64",result="hit"} 5
plum_msg_pool_buffers_total{class="4096",result="hit"} 6
plum_msg_pool_buffers_total{class="64",result="miss"} 1
`
	s, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := Sum(s, "plum_msg_pool_buffers_total", map[string]string{"result": "hit"}); got != 11 {
		t.Errorf("hits = %v, want 11", got)
	}
	if got := Sum(s, "plum_msg_pool_buffers_total", nil); got != 12 {
		t.Errorf("all = %v, want 12", got)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, text := range []string{"novalue\n", "x{a=\"1\" 2\n", "x{a=1} 2\n", "x notanumber\n"} {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("accepted %q", text)
		}
	}
}
