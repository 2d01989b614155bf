package main

import (
	"strings"
	"testing"
)

const okBody = `{"kind":"epoch","cycle":0,"balanced":false,"accepted":true,"measured":false,"gain":1,"cost":0.5,"total_v":3,"max_v":2,"elems":10,"solve_seconds":0.25}
{"kind":"end","rows":1,"sim_time":1.5,"digest":"d1"}
`

func reply1(cache, body string) *reply {
	return &reply{req: request{label: "w", rows: 1}, phase: "p", status: 200, digest: "d1", cache: cache, body: []byte(body)}
}

func TestVerifyByteIdentity(t *testing.T) {
	v := verify([]*reply{reply1("singleflight", okBody), reply1("miss", okBody), reply1("hit", okBody)})
	if v.failed() != 0 || len(v.leaders) != 1 || v.leaders[0].cache != "miss" {
		t.Fatalf("identical bodies: failed %d, leaders %d, problems %v", v.failed(), len(v.leaders), v.problems)
	}

	other := strings.Replace(okBody, `"gain":1,`, `"gain":2,`, 1)
	v = verify([]*reply{reply1("miss", okBody), reply1("hit", other)})
	if v.failed() != 1 || !v.replies[1].bad {
		t.Fatalf("a hit differing from its leader must fail alone: failed %d, %v", v.failed(), v.problems)
	}

	v = verify([]*reply{reply1("hit", okBody)})
	if v.failed() != 1 {
		t.Fatalf("a world nobody simulated must fail: %v", v.problems)
	}

	bad := reply1("miss", okBody)
	bad.status = 500
	v = verify([]*reply{bad})
	if v.failed() != 1 || len(v.leaders) != 0 {
		t.Fatalf("a 500 must fail: %v", v.problems)
	}
}
