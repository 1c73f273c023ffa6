package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// OTLP-JSON file export: the OpenTelemetry OTLP/JSON trace payload shape
// (resourceSpans → scopeSpans → spans), hand-rolled over stdlib JSON so
// exported files load into any OTLP-speaking backend or viewer. One
// resourceSpans entry per service, since service.name is a resource
// attribute.

type otlpPayload struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpAttr `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []otlpAttr `json:"attributes,omitempty"`
	Status            otlpStatus `json:"status"`
}

type otlpAttr struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue string `json:"stringValue"`
}

type otlpStatus struct {
	Code    int    `json:"code"` // 0 unset, 1 ok, 2 error
	Message string `json:"message,omitempty"`
}

// WriteOTLP writes the traces as one OTLP/JSON ExportTraceServiceRequest
// payload, grouped into a resourceSpans entry per service.
func WriteOTLP(w io.Writer, traces []*Trace) error {
	byService := map[string][]otlpSpan{}
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			o := otlpSpan{
				TraceID:           sp.TraceID.String(),
				SpanID:            sp.SpanID.String(),
				Name:              sp.Name,
				Kind:              1, // internal
				StartTimeUnixNano: fmt.Sprint(sp.Start.UnixNano()),
				EndTimeUnixNano:   fmt.Sprint(sp.Start.Add(sp.Duration).UnixNano()),
			}
			if !sp.Parent.IsZero() {
				o.ParentSpanID = sp.Parent.String()
			}
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				o.Attributes = append(o.Attributes, otlpAttr{Key: k, Value: otlpValue{StringValue: sp.Attrs[k]}})
			}
			if sp.Err != "" {
				o.Status = otlpStatus{Code: 2, Message: sp.Err}
			}
			byService[sp.Service] = append(byService[sp.Service], o)
		}
	}
	services := make([]string, 0, len(byService))
	for svc := range byService {
		services = append(services, svc)
	}
	sort.Strings(services)
	payload := otlpPayload{}
	for _, svc := range services {
		payload.ResourceSpans = append(payload.ResourceSpans, otlpResourceSpans{
			Resource: otlpResource{Attributes: []otlpAttr{{
				Key: "service.name", Value: otlpValue{StringValue: svc},
			}}},
			ScopeSpans: []otlpScopeSpans{{
				Scope: otlpScope{Name: "ccheck/obs"},
				Spans: byService[svc],
			}},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(payload)
}

// WriteSpanTree renders one trace as an indented text tree — the
// ccshell :trace format:
//
//	trace 4bf92f3577b34da6a3ce929d0e0e4736  1.2ms  3 services, 7 spans
//	└─ serve.apply (ccserved)  1.2ms
//	   ├─ queue.wait  4µs
//	   └─ decide  1.1ms
//	      ├─ phase.residual (cache=hit)  10µs
//	      └─ rpc.eval → site-a (ccserved)  900µs
//	         └─ site.eval (ccsited)  700µs
//
// Spans whose parent is missing from the trace (dropped or foreign) are
// rendered as extra roots, so nothing is silently hidden.
func WriteSpanTree(w io.Writer, tr *Trace) {
	byID := make(map[SpanID]SpanData, len(tr.Spans))
	children := make(map[SpanID][]SpanData)
	services := map[string]bool{}
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp
		services[sp.Service] = true
	}
	var roots []SpanData
	for _, sp := range tr.Spans {
		if _, ok := byID[sp.Parent]; ok && !sp.Parent.IsZero() {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	for id := range children {
		sort.Slice(children[id], func(i, j int) bool {
			return children[id][i].Start.Before(children[id][j].Start)
		})
	}
	fmt.Fprintf(w, "trace %s  %s  %d services, %d spans\n",
		tr.ID, tr.Root.Duration.Round(time.Microsecond), len(services), len(tr.Spans))
	var render func(sp SpanData, prefix string, last bool)
	render = func(sp SpanData, prefix string, last bool) {
		branch, childPrefix := "├─ ", prefix+"│  "
		if last {
			branch, childPrefix = "└─ ", prefix+"   "
		}
		fmt.Fprintf(w, "%s%s%s (%s)", prefix, branch, sp.Name, sp.Service)
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, k+"="+sp.Attrs[k])
			}
			fmt.Fprintf(w, " [%s]", strings.Join(parts, " "))
		}
		fmt.Fprintf(w, "  %s", sp.Duration.Round(time.Microsecond))
		if sp.Err != "" {
			fmt.Fprintf(w, "  ERROR: %s", sp.Err)
		}
		fmt.Fprintln(w)
		kids := children[sp.SpanID]
		for i, kid := range kids {
			render(kid, childPrefix, i == len(kids)-1)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	for i, root := range roots {
		render(root, "", i == len(roots)-1)
	}
}
