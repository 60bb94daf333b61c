// The paper's deployment model (Figure 3) over a real TCP socket: the
// client generates keys, encrypts an image, and ships the *public*
// evaluation keys plus the encrypted image to an untrusted server; the
// server — which never sees a secret key, the image, or the prediction —
// evaluates the optimized homomorphic tensor circuit and returns an
// encrypted prediction, which only the client can decrypt.
//
// Both sides speak the versioned internal/wire framing protocol: the server
// is the same engine cmd/chet-serve runs (session registry, admission
// queue, deadlines, metrics), and the client is the serve.Client library —
// session-open uploads the keys once, every inference after that ships only
// ciphertexts.
//
//	go run ./examples/clientserver
package main

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net"
	"os"
	"runtime"
	"time"

	"chet"
	"chet/internal/core"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/serve"
)

const modelName = "LeNet-tiny"

// compileShared is run independently by both parties: compilation is
// deterministic, so client and server agree on parameters, layout, and
// rotation keys without exchanging anything but the model name — and the
// session-open handshake proves agreement by comparing circuit
// fingerprints.
func compileShared() *core.Compiled {
	model, err := nn.ByName(modelName)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := core.Compile(model.Circuit, core.Options{
		Scheme:       core.SchemeRNS,
		SecurityBits: -1, // small demo ring so the example runs in seconds
		MinLogN:      11,
		MaxLogN:      11,
	})
	if err != nil {
		log.Fatal(err)
	}
	return comp
}

func main() {
	log.SetFlags(0)

	// --- server: the untrusted party; it never holds a secret key ---
	srv, err := serve.New(serve.Config{
		Compiled: compileShared(),
		Workers:  runtime.GOMAXPROCS(0),
		Logger:   slog.New(slog.NewTextHandler(os.Stdout, nil)).With("party", "server"),
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)

	// --- client: compiles independently, generates keys, opens a session ---
	comp := compileShared()
	model, _ := nn.ByName(modelName)
	start := time.Now()
	client, err := serve.Dial(ln.Addr().String(), serve.ClientConfig{
		Compiled: comp,
		PRNG:     ring.NewCryptoPRNG(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[client] session open in %v: shipped public evaluation keys (%d rotation keys)\n",
		time.Since(start).Round(time.Millisecond), len(comp.Best.Rotations))

	img := chet.SyntheticImage(model.InputShape, 99)
	start = time.Now()
	pred, err := client.Run(img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[client] encrypted inference round trip in %v\n",
		time.Since(start).Round(time.Millisecond))

	want := model.Circuit.Evaluate(img)
	worst := 0.0
	for i := range want.Data {
		if e := math.Abs(pred.Data[i] - want.Data[i]); e > worst {
			worst = e
		}
	}
	fmt.Printf("[client] decrypted prediction: class %d (plaintext reference: %d), max |err| %.2e\n",
		pred.ArgMax(), want.ArgMax(), worst)
	client.Close()

	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	m := srv.Metrics()
	for _, sm := range m.Sessions {
		fmt.Printf("[server] session %d executed %d HISA ops (%d rotations) without ever seeing a secret\n",
			sm.ID, sm.Ops.Total(), sm.Ops.Rotations())
	}
}
