// Godoc examples for the serving layer. Each runs under go test.
package serve_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"

	"incgraph/internal/graph"
	"incgraph/internal/serve"
	"incgraph/internal/sssp"
	"incgraph/internal/trace"
)

func ExampleService_Submit() {
	g := graph.New(3, true)
	g.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 4}})

	// The service owns the maintainer: its apply loop is the only caller
	// of Apply, and readers get immutable epoch-stamped snapshot views. A
	// lone maintainer is a service of one.
	svc := serve.NewService()
	defer svc.Close()
	h, err := svc.Host(serve.SSSP(sssp.NewInc(g, 0)), serve.Options{})
	if err != nil {
		fmt.Println("host:", err)
		return
	}

	// Submit returns once the batch is accepted; the channel closes once
	// every host has published its view.
	published, err := svc.Submit(graph.Batch{{Kind: graph.InsertEdge, From: 1, To: 2, W: 4}}, trace.TraceID{})
	if err != nil {
		fmt.Println("submit:", err)
		return
	}
	<-published
	v := h.View()
	fmt.Println("epoch:", v.Epoch)
	fmt.Println("dist:", v.Data.(serve.SSSPView).Dist.Slice())
	// Output:
	// epoch: 1
	// dist: [0 4 8]
}

func ExampleNewService() {
	g := graph.New(3, true)
	g.Apply(graph.Batch{{Kind: graph.InsertEdge, From: 0, To: 1, W: 2}})

	svc := serve.NewService()
	defer svc.Close()
	if _, err := svc.Host(serve.SSSP(sssp.NewInc(g, 0)), serve.Options{}); err != nil {
		fmt.Println("host:", err)
		return
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Ingest one batch (wait=1 blocks until its view is published)…
	resp, err := srv.Client().Post(srv.URL+"/update?wait=1", "text/plain",
		strings.NewReader("+ 1 2 2\n"))
	if err != nil {
		fmt.Println("update:", err)
		return
	}
	resp.Body.Close()

	// …then the published snapshot reflects it.
	resp, err = srv.Client().Get(srv.URL + "/query/sssp")
	if err != nil {
		fmt.Println("query:", err)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println(string(body))
	// Output:
	// {"algo":"sssp","epoch":1,"batches":1,"data":{"src":0,"dist":[0,2,4]}}
}
