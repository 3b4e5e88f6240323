package apps

import (
	"fmt"

	"weseer/internal/appgen"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
)

// opened is a constructor's result as an App: a nil App with the error, not
// a typed nil pointer.
func opened[A App](app A, err error) (App, error) {
	if err != nil {
		return nil, err
	}
	return app, nil
}

func init() {
	Register("broadleaf", Factory{
		Summary: "Broadleaf Commerce model (Table I APIs, deadlocks d1-d13)",
		New: func(arg string, opt Options) (App, error) {
			if arg != "" {
				return nil, fmt.Errorf("broadleaf takes no argument (got %q)", arg)
			}
			return opened(broadleaf.New(opt.Apply, opt.DB))
		},
	})
	Register("shopizer", Factory{
		Summary: "Shopizer model (Table I APIs, deadlocks d14-d18)",
		New: func(arg string, opt Options) (App, error) {
			if arg != "" {
				return nil, fmt.Errorf("shopizer takes no argument (got %q)", arg)
			}
			return opened(shopizer.New(opt.Apply, opt.DB))
		},
	})
	Register("gen", Factory{
		Summary: "synthetic corpus generator: gen:<seed>[,templates=N,modules=K,tables=T,rows=R,hot=P,nest=D,classes=f1:1+...|all|none]",
		New: func(arg string, opt Options) (App, error) {
			cfg, err := appgen.ParseSpec(arg)
			if err != nil {
				return nil, err
			}
			return opened(appgen.New(cfg, opt.DB, opt.Apply))
		},
	})
}
