"""SeSeMI core: KeyService, SeMIRT, FnPacker, clients, and their sim twins."""
