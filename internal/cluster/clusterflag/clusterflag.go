// Package clusterflag declares the cluster flags every simulation
// binary shares — -faults, -reliable, -read-timeout, -simrace and
// -http — so their names, defaults and handling are written once.
//
//	cf := clusterflag.Register(flag.CommandLine)
//	flag.Parse()
//	cf.Start()
//	defer cf.Close()
package clusterflag

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nscc/internal/faults"
	"nscc/internal/obs"
	"nscc/internal/sim"
)

// Flags holds the parsed cluster flags.
type Flags struct {
	Reliable bool // -reliable: ack/retransmit message delivery
	SimRace  bool // -simrace: run the simulated-time race classifier

	// Set by Start.
	Faults      *faults.Plan // -faults, loaded (nil without the flag)
	ReadTimeout sim.Duration // -read-timeout in virtual time
	Server      *obs.Server  // -http observer (nil without the flag)

	faultsPath  string
	readTimeout time.Duration
	httpAddr    string
}

// Register declares the shared cluster flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.faultsPath, "faults", "", "apply the fault plan in this JSON file to every simulated cluster")
	fs.BoolVar(&f.Reliable, "reliable", false, "use sequence-numbered ack/retransmit message delivery")
	fs.DurationVar(&f.readTimeout, "read-timeout", 0, "bound Global_Read blocking in virtual time (e.g. 50ms; 0 = wait forever)")
	fs.BoolVar(&f.SimRace, "simrace", false, "classify every cross-process read with the simulated-time race checker")
	fs.StringVar(&f.httpAddr, "http", "", "serve the live status page, OpenMetrics /metrics, and /debug/pprof on this address (e.g. :8080); strictly observer-side, results are unchanged")
	return f
}

// Start acts on the parsed flags: it loads the fault plan and starts the
// live observer, exiting with status 2 if either fails. Close releases
// the observer.
func (f *Flags) Start() {
	f.ReadTimeout = sim.Duration(f.readTimeout.Nanoseconds())
	if f.faultsPath != "" {
		plan, err := faults.LoadFile(f.faultsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-faults: %v\n", err)
			os.Exit(2)
		}
		f.Faults = plan
	}
	if f.httpAddr != "" {
		srv, err := obs.Start(f.httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		f.Server = srv
		fmt.Fprintf(os.Stderr, "live status on http://%s/ (/metrics, /debug/pprof/)\n", srv.Addr())
	}
}

// Close stops the observer, if one was started.
func (f *Flags) Close() {
	if f.Server != nil {
		f.Server.Close()
	}
}
